# Development workflow for the reproduction. `make ci` is the gate the
# repo is expected to keep green.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test race benchsmoke crashmatrix fuzz bench repro clean

ci: fmt vet build test race benchsmoke crashmatrix fuzz

# Fails listing the files when any Go file is not gofmt-formatted.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One-iteration benchmark pass: proves the engine, session point-read
# and keyless-scan, B+tree probe, B+tree build, fragment-index lookup,
# unnest-chain and hash-join micro-benchmarks still compile and run, smoke-runs every workload of
# the committed benchmark module (its own go.mod, so `test` does not
# reach it), and runs the cost-model differential axis under the race
# detector.
benchsmoke:
	$(GO) test -run=NONE -bench=BenchmarkScan -benchtime=1x ./internal/engine/
	$(GO) test -run=NONE -bench=BenchmarkSessionPointRead -benchtime=1x ./internal/engine/
	$(GO) test -run=NONE -bench=BenchmarkSessionScan -benchtime=1x ./internal/engine/
	$(GO) test -run=NONE -bench=BenchmarkBTreeLookup -benchtime=1x ./internal/engine/index/
	$(GO) test -run=NONE -bench=BenchmarkBTreeBuild -benchtime=1x ./internal/engine/index/
	$(GO) test -run=NONE -bench=BenchmarkLookupFindKey -benchtime=1x ./internal/engine/xindex/
	$(GO) test -run=NONE -bench=BenchmarkUnnestChain -benchtime=1x ./internal/xadt/
	$(GO) test -run=NONE -bench=BenchmarkHashJoin -benchtime=1x ./internal/engine/exec/
	cd benchmark && $(GO) test ./...
	$(GO) test -race -run TestDifferentialCostModelAxis ./internal/difftest/

# Exhaustive fault-injection sweep: crash the store at every mutating
# filesystem operation (plus torn-write variants) and require recovery to
# reproduce the committed prefix byte-for-byte. `race` already runs these
# tests once; this target keeps them callable standalone with -v output.
crashmatrix:
	$(GO) test -race -run 'TestCrashMatrix|TestRecoveredStoreAnswersQueries' ./internal/engine/wal/

# Short coverage-guided fuzz pass over the hostile-input decoders. The
# committed corpora (testdata/fuzz/) replay past crashers on every plain
# `go test`; this target additionally explores for a few seconds per
# target so CI keeps probing new inputs. Run a target standalone with a
# longer -fuzztime to dig deeper.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDTDParse -fuzztime=$(FUZZTIME) ./internal/dtd/
	$(GO) test -run=NONE -fuzz=FuzzRawScanEntities -fuzztime=$(FUZZTIME) ./internal/xadt/
	$(GO) test -run=NONE -fuzz=FuzzScanVsTree -fuzztime=$(FUZZTIME) ./internal/xadt/
	$(GO) test -run=NONE -fuzz=FuzzHeaderDecode -fuzztime=$(FUZZTIME) ./internal/xadt/
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/engine/wal/
	$(GO) test -run=NONE -fuzz=FuzzMutationReplay -fuzztime=$(FUZZTIME) ./internal/engine/wal/
	$(GO) test -run=NONE -fuzz=FuzzPostingCodec -fuzztime=$(FUZZTIME) ./internal/engine/xindex/
	$(GO) test -run=NONE -fuzz=FuzzTokenizeSuperset -fuzztime=$(FUZZTIME) ./internal/engine/xindex/
	$(GO) test -run=NONE -fuzz=FuzzFragmentIndexOps -fuzztime=$(FUZZTIME) ./internal/engine/xindex/
	$(GO) test -run=NONE -fuzz=FuzzStatsCodec -fuzztime=$(FUZZTIME) ./internal/engine/catalog/
	$(GO) test -run=NONE -fuzz=FuzzParseStatement -fuzztime=$(FUZZTIME) ./internal/engine/sql/
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME) ./internal/engine/storage/
	$(GO) test -run=NONE -fuzz=FuzzDeserializeHeapFile -fuzztime=$(FUZZTIME) ./internal/engine/storage/
	$(GO) test -run=NONE -fuzz=FuzzHeapOps -fuzztime=$(FUZZTIME) ./internal/engine/storage/
	$(GO) test -run=NONE -fuzz=FuzzBTreeLookup -fuzztime=$(FUZZTIME) ./internal/engine/index/
	$(GO) test -run=NONE -fuzz=FuzzBTreeBuild -fuzztime=$(FUZZTIME) ./internal/engine/index/
	$(GO) test -run=NONE -fuzz=FuzzParseDocument -fuzztime=$(FUZZTIME) ./internal/xmltree/

bench:
	$(GO) test -run=NONE -bench=. ./...

# Reduced-scale pass over every paper experiment (Tables 1-2, Figures
# 11, 13, 14, schemas, Monet, compression, differential test).
repro:
	$(GO) run ./cmd/repro -quick -scales 1,2 -repeats 3

clean:
	rm -f *.pprof
