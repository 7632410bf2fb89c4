// The benchmark is a module of its own so that it builds by itself from
// the benchmark's directory and stays out of the engine's `go build ./...`
// and `go test ./...`. The module path sits under the engine's, which is
// what lets it import the engine's internal packages.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
