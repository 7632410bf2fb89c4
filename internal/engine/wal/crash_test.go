package wal_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
	"repro/internal/shred"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// The crash matrix runs one fixed load-and-checkpoint timeline per store
// configuration, first fault-free to enumerate every mutating filesystem
// operation, then once per operation with a crash injected there (plus a
// torn-write variant for write operations). After each simulated crash,
// OpenRecovered must yield exactly the committed-prefix store — compared
// byte-for-byte against an uninterrupted twin loaded with the same
// number of documents — and resuming the load from that prefix must
// reach the same state as a store that never crashed.

// crashConfig is one store configuration of the matrix: the mapping
// algorithm, with the sync policy and forced storage format varied
// alongside so all three policies and both formats get crash coverage.
type crashConfig struct {
	name   string
	alg    core.Algorithm
	sync   wal.SyncPolicy
	format xadt.Format
}

var crashConfigs = []crashConfig{
	{"hybrid-always", core.Hybrid, wal.SyncAlways, xadt.Raw},
	{"xorator-batch", core.XORator, wal.SyncBatch, xadt.Compressed},
	{"xorator-off", core.XORator, wal.SyncOff, xadt.Raw},
}

// tinyPlay builds a minimal document conforming to the Shakespeare DTD.
// extraLine, when non-empty, is appended as one more LINE — the crash
// matrix passes an oversized text there so the timeline also covers
// overflow-blob WAL frames.
func tinyPlay(t *testing.T, i int, extraLine string) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, `<PLAY><TITLE>Play %d</TITLE><FM><P>note %d</P></FM>
<PERSONAE><TITLE>Cast</TITLE><PERSONA>ROMEO</PERSONA><PERSONA>SPEAKER%d</PERSONA></PERSONAE>
<SCNDESCR>Verona</SCNDESCR><PLAYSUBT>Subtitle %d</PLAYSUBT>
<ACT><TITLE>Act I</TITLE><SCENE><TITLE>Scene %d</TITLE>
<SPEECH><SPEAKER>ROMEO</SPEAKER><LINE>line one of play %d</LINE><LINE>line two</LINE></SPEECH>
<SPEECH><SPEAKER>SPEAKER%d</SPEAKER><LINE>reply in play %d</LINE>`, i, i, i, i, i, i, i, i)
	if extraLine != "" {
		fmt.Fprintf(&sb, "<LINE>%s</LINE>", extraLine)
	}
	sb.WriteString(`</SPEECH></SCENE></ACT></PLAY>`)
	doc, err := xmltree.Parse(sb.String())
	if err != nil {
		t.Fatalf("tiny play %d: %v", i, err)
	}
	return doc
}

// crashDocs is the timeline's document set: five tiny plays, the fourth
// carrying a text larger than MaxInlineRecord so its tuples take the
// overflow path in both the heap and the WAL.
func crashDocs(t *testing.T) []*xmltree.Document {
	t.Helper()
	docs := make([]*xmltree.Document, 5)
	for i := range docs {
		extra := ""
		if i == 3 {
			extra = strings.Repeat("verbose soliloquy ", storage.MaxInlineRecord/16)
		}
		docs[i] = tinyPlay(t, i, extra)
	}
	return docs
}

// runTimeline executes the workload under test on vfs: create a
// WAL-backed store, load in three calls, checkpoint mid-way, load the
// rest, close. Crash points are injected by handing it a FaultVFS.
func runTimeline(vfs storage.VFS, cfg crashConfig, docs []*xmltree.Document) error {
	format := cfg.format
	st, err := core.NewStore(corpus.ShakespeareDTD, core.Config{
		Algorithm:   cfg.alg,
		ForceFormat: &format,
		Engine:      engine.Config{WALDir: "wal", WALSync: cfg.sync, VFS: vfs},
	})
	if err != nil {
		return err
	}
	if err := st.Load(docs[:2]); err != nil {
		return err
	}
	if err := st.Load(docs[2:3]); err != nil {
		return err
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	if err := st.Load(docs[3:]); err != nil {
		return err
	}
	return st.Close()
}

func TestCrashMatrix(t *testing.T) {
	docs := crashDocs(t)
	for _, cfg := range crashConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()

			// Pass 1: run fault-free over a counting VFS to learn the
			// full schedule of mutating operations, and remember where
			// the first checkpoint is published (its rename) — crashes
			// before that point legitimately leave nothing to recover.
			counter := &storage.FaultVFS{Inner: storage.NewMemVFS()}
			if err := runTimeline(counter, cfg, docs); err != nil {
				t.Fatalf("fault-free timeline: %v", err)
			}
			kinds := counter.OpKinds()
			firstCheckpoint := 0
			for i, k := range kinds {
				if k == "rename" {
					firstCheckpoint = i + 1
					break
				}
			}
			if firstCheckpoint == 0 {
				t.Fatal("timeline performed no checkpoint rename")
			}

			// Uninterrupted twins, one per possible committed prefix,
			// built lazily: the n-document twin is what recovery must
			// reproduce when n batches had committed at the crash.
			twins := map[int]*core.Store{}
			twin := func(n int) *core.Store {
				if tw, ok := twins[n]; ok {
					return tw
				}
				format := cfg.format
				tw, err := core.NewStore(corpus.ShakespeareDTD, core.Config{
					Algorithm:   cfg.alg,
					ForceFormat: &format,
				})
				if err != nil {
					t.Fatalf("twin store: %v", err)
				}
				if n > 0 {
					if err := tw.Load(docs[:n]); err != nil {
						t.Fatalf("twin load: %v", err)
					}
				} else if err := shred.EnsureTables(tw.DB, tw.Schema); err != nil {
					// Recovery guarantees the mapped tables exist even when
					// no batch committed; give the empty twin the same shape.
					t.Fatalf("twin tables: %v", err)
				}
				twins[n] = tw
				return tw
			}

			// Pass 2: one run per crash point; write operations also get
			// a torn variant where half the failing buffer persists.
			points := 0
			for op := 1; op <= len(kinds); op++ {
				variants := []bool{false}
				if kinds[op-1] == "write" {
					variants = append(variants, true)
				}
				for _, torn := range variants {
					name := fmt.Sprintf("op%03d-%s", op, kinds[op-1])
					if torn {
						name += "-torn"
					}
					points++

					mem := storage.NewMemVFS()
					fv := &storage.FaultVFS{Inner: mem, FailAtOp: op, Torn: torn}
					err := runTimeline(fv, cfg, docs)
					if err == nil {
						t.Fatalf("%s: timeline survived its injected fault", name)
					}
					if !errors.Is(err, storage.ErrCrashed) {
						t.Fatalf("%s: timeline failed outside the fault: %v", name, err)
					}

					// Recover on the bare MemVFS: the crashed process is
					// gone, the bytes it managed to write remain.
					format := cfg.format
					rec, err := core.OpenRecovered(core.Config{
						ForceFormat: &format,
						Engine:      engine.Config{WALDir: "wal", WALSync: cfg.sync, VFS: mem},
					})
					if err != nil {
						if errors.Is(err, core.ErrNoCheckpoint) && op <= firstCheckpoint {
							continue // crashed before store creation finished
						}
						t.Fatalf("%s: recovery failed: %v", name, err)
					}
					committed := int(rec.CommittedBatches())
					if committed > len(docs) {
						t.Fatalf("%s: recovered %d batches from %d documents", name, committed, len(docs))
					}
					if err := difftest.CompareStores(rec, twin(committed)); err != nil {
						t.Fatalf("%s: recovered store differs from %d-document twin: %v", name, committed, err)
					}

					// The recovered store must also be able to finish the
					// job: loading the uncommitted suffix lands it in the
					// same state as a store that never crashed.
					if err := rec.Load(docs[committed:]); err != nil {
						t.Fatalf("%s: resuming load after recovery: %v", name, err)
					}
					if err := difftest.CompareStores(rec, twin(len(docs))); err != nil {
						t.Fatalf("%s: resumed store differs from full twin: %v", name, err)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("%s: closing recovered store: %v", name, err)
					}
				}
			}
			t.Logf("%s: %d crash points over %d operations recovered cleanly", cfg.name, points, len(kinds))
		})
	}
}

// TestRecoveredStoreAnswersQueries spot-checks that a store rebuilt from
// checkpoint + WAL replay is queryable and index-buildable, not just
// byte-identical: the standard indexes build on top of the replayed
// heaps and a selection over them matches the uninterrupted twin.
func TestRecoveredStoreAnswersQueries(t *testing.T) {
	docs := crashDocs(t)
	mem := storage.NewMemVFS()
	cfg := crashConfigs[1] // xorator, compressed
	counter := &storage.FaultVFS{Inner: storage.NewMemVFS()}
	if err := runTimeline(counter, cfg, docs); err != nil {
		t.Fatal(err)
	}
	// Crash three quarters of the way through the schedule, mid-load
	// after the checkpoint.
	fv := &storage.FaultVFS{Inner: mem, FailAtOp: counter.OpCount() * 3 / 4}
	if err := runTimeline(fv, cfg, docs); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("timeline err = %v, want simulated crash", err)
	}
	rec, err := core.OpenRecovered(core.Config{
		Engine: engine.Config{WALDir: "wal", WALSync: cfg.sync, VFS: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.CreateDefaultIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := rec.RunStats(); err != nil {
		t.Fatal(err)
	}
	res, err := rec.Query(`SELECT play_title FROM play`)
	if err != nil {
		t.Fatal(err)
	}
	committed := int(rec.CommittedBatches())
	if committed < 3 {
		t.Fatalf("crash point landed before the checkpoint (%d batches)", committed)
	}
	if len(res.Rows) != committed {
		t.Fatalf("plays = %d, want one per committed document (%d)", len(res.Rows), committed)
	}
}

// mutationOps builds the mutation-timeline operation list: document
// adds, SQL DML of every kind, a fragment splice (XORator only — the
// Hybrid mapping has no XADT columns), and a whole-document removal.
// Every operation commits exactly one WAL batch, so the number of
// committed batches a crash leaves behind identifies the exact prefix
// an uninterrupted twin must replay to match the recovered store.
func mutationOps(t *testing.T, alg core.Algorithm, docs []*xmltree.Document) []func(*core.Store) error {
	t.Helper()
	add := func(i int) func(*core.Store) error {
		return func(st *core.Store) error {
			_, err := st.AddDocuments(docs[i : i+1])
			return err
		}
	}
	exec := func(stmt string) func(*core.Store) error {
		return func(st *core.Store) error {
			_, err := st.Exec(stmt)
			return err
		}
	}
	ops := []func(*core.Store) error{
		add(0),
		add(1),
		// Play IDs and speech IDs are the loader's 1..N sequence, so the
		// same statements pick the same victims on every run and twin.
		exec(`UPDATE play SET play_title = 'renamed' WHERE playID = 2`),
		exec(`DELETE FROM speech WHERE speechID = 1`),
		exec(`INSERT INTO play (playID, play_title) VALUES (-1, 'synthetic')`),
	}
	if alg == core.XORator {
		ops = append(ops, func(st *core.Store) error {
			return st.SpliceFragment("speech", "speech_line", 2,
				[]string{"<LINE>spliced before the crash</LINE>", "<LINE>and another</LINE>"})
		})
	}
	ops = append(ops,
		func(st *core.Store) error { return st.RemoveDocument(1) },
		add(2),
		exec(`UPDATE act SET act_title = 'Act Redux' WHERE actID >= 1 AND actID <= 2`),
	)
	return ops
}

// runMutationTimeline applies the op list to a WAL-backed store on vfs,
// checkpointing after the fourth operation so crash points land on both
// sides of a snapshot boundary.
func runMutationTimeline(vfs storage.VFS, cfg crashConfig, ops []func(*core.Store) error) error {
	format := cfg.format
	st, err := core.NewStore(corpus.ShakespeareDTD, core.Config{
		Algorithm:   cfg.alg,
		ForceFormat: &format,
		Engine:      engine.Config{WALDir: "wal", WALSync: cfg.sync, VFS: vfs},
	})
	if err != nil {
		return err
	}
	for i, op := range ops {
		if err := op(st); err != nil {
			return err
		}
		if i == 3 {
			if err := st.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return st.Close()
}

// TestCrashMatrixMutation is the crash matrix over a mutation history:
// the timeline mixes document adds, UPDATE/DELETE/INSERT, a fragment
// splice, and a document removal, and is killed at every mutating
// filesystem operation (plus torn-write variants). Recovery must
// reproduce the committed-prefix twin byte-for-byte — including the
// delete and update redo frames — and resuming the remaining
// operations must land in the never-crashed state.
func TestCrashMatrixMutation(t *testing.T) {
	docs := crashDocs(t)
	for _, cfg := range crashConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			ops := mutationOps(t, cfg.alg, docs)

			counter := &storage.FaultVFS{Inner: storage.NewMemVFS()}
			if err := runMutationTimeline(counter, cfg, ops); err != nil {
				t.Fatalf("fault-free timeline: %v", err)
			}
			kinds := counter.OpKinds()
			firstCheckpoint := 0
			for i, k := range kinds {
				if k == "rename" {
					firstCheckpoint = i + 1
					break
				}
			}
			if firstCheckpoint == 0 {
				t.Fatal("timeline performed no checkpoint rename")
			}

			// twin(n) is an unlogged store that applied the first n
			// operations — what recovery must reproduce when n batches
			// had committed at the crash.
			twins := map[int]*core.Store{}
			twin := func(n int) *core.Store {
				if tw, ok := twins[n]; ok {
					return tw
				}
				format := cfg.format
				tw, err := core.NewStore(corpus.ShakespeareDTD, core.Config{
					Algorithm:   cfg.alg,
					ForceFormat: &format,
				})
				if err != nil {
					t.Fatalf("twin store: %v", err)
				}
				if n == 0 {
					if err := shred.EnsureTables(tw.DB, tw.Schema); err != nil {
						t.Fatalf("twin tables: %v", err)
					}
				}
				for i := 0; i < n; i++ {
					if err := ops[i](tw); err != nil {
						t.Fatalf("twin op %d: %v", i, err)
					}
				}
				twins[n] = tw
				return tw
			}

			points := 0
			for op := 1; op <= len(kinds); op++ {
				variants := []bool{false}
				if kinds[op-1] == "write" {
					variants = append(variants, true)
				}
				for _, torn := range variants {
					name := fmt.Sprintf("op%03d-%s", op, kinds[op-1])
					if torn {
						name += "-torn"
					}
					points++

					mem := storage.NewMemVFS()
					fv := &storage.FaultVFS{Inner: mem, FailAtOp: op, Torn: torn}
					err := runMutationTimeline(fv, cfg, ops)
					if err == nil {
						t.Fatalf("%s: timeline survived its injected fault", name)
					}
					if !errors.Is(err, storage.ErrCrashed) {
						t.Fatalf("%s: timeline failed outside the fault: %v", name, err)
					}

					format := cfg.format
					rec, err := core.OpenRecovered(core.Config{
						ForceFormat: &format,
						Engine:      engine.Config{WALDir: "wal", WALSync: cfg.sync, VFS: mem},
					})
					if err != nil {
						if errors.Is(err, core.ErrNoCheckpoint) && op <= firstCheckpoint {
							continue
						}
						t.Fatalf("%s: recovery failed: %v", name, err)
					}
					committed := int(rec.CommittedBatches())
					if committed > len(ops) {
						t.Fatalf("%s: recovered %d batches from %d operations", name, committed, len(ops))
					}
					if err := difftest.CompareStores(rec, twin(committed)); err != nil {
						t.Fatalf("%s: recovered store differs from %d-op twin: %v", name, committed, err)
					}

					for i := committed; i < len(ops); i++ {
						if err := ops[i](rec); err != nil {
							t.Fatalf("%s: resuming op %d after recovery: %v", name, i, err)
						}
					}
					if err := difftest.CompareStores(rec, twin(len(ops))); err != nil {
						t.Fatalf("%s: resumed store differs from full twin: %v", name, err)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("%s: closing recovered store: %v", name, err)
					}
				}
			}
			t.Logf("%s: %d crash points over %d operations recovered cleanly", cfg.name, points, len(kinds))
		})
	}
}
