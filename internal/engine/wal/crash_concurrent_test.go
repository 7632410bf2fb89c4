package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// The concurrent crash matrix kills an MVCC store at every mutating
// filesystem operation of a multi-transaction interleaving: sessions A
// and B record ops concurrently and commit in A-then-B order, a direct
// autocommit op and a remove+add transaction follow, and session C stays
// in flight — it records an insert but never commits, so no trace of it
// may survive any crash. Each committed transaction is exactly one WAL
// batch, so the recovered batch count identifies the committed prefix of
// the transaction timeline, and recovery must reproduce the twin store
// that applied exactly that prefix.

// mutator is the store-level mutation vocabulary a transaction effect
// uses; *core.Store satisfies it directly (autocommit), sessionStore
// routes it through one snapshot session.
type mutator interface {
	Exec(stmt string) (int64, error)
	AddDocuments(docs []*xmltree.Document) ([]int64, error)
	RemoveDocument(docID int64) error
	SpliceFragment(table, column string, id int64, fragTexts []string) error
}

// concurrentTxn is one committed transaction of the timeline, expressed
// as its serial-equivalent effect so the same list can drive both the
// session timeline and the unlogged twin.
type concurrentTxn func(mutator) error

// concurrentTxns returns the committed transactions in commit order.
func concurrentTxns(cfg crashConfig, docs []*xmltree.Document) []concurrentTxn {
	addOne := func(i int) concurrentTxn {
		return func(st mutator) error {
			_, err := st.AddDocuments(docs[i : i+1])
			return err
		}
	}
	exec := func(stmt string) concurrentTxn {
		return func(st mutator) error {
			_, err := st.Exec(stmt)
			return err
		}
	}
	txnA := func(st mutator) error {
		if _, err := st.Exec(`UPDATE play SET play_title = 'renamed' WHERE playID = 1`); err != nil {
			return err
		}
		if cfg.alg == core.XORator {
			return st.SpliceFragment("speech", "speech_line", 2,
				[]string{"<LINE>spliced concurrently</LINE>"})
		}
		return nil
	}
	txnB := func(st mutator) error {
		if _, err := st.Exec(`DELETE FROM speech WHERE speechID = 1`); err != nil {
			return err
		}
		_, err := st.Exec(`INSERT INTO play (playID, play_title) VALUES (-1, 'synthetic')`)
		return err
	}
	txnRemoveAdd := func(st mutator) error {
		if err := st.RemoveDocument(1); err != nil {
			return err
		}
		_, err := st.AddDocuments(docs[2:3])
		return err
	}
	return []concurrentTxn{
		addOne(0),
		addOne(1),
		txnA,
		txnB,
		txnRemoveAdd,
		exec(`UPDATE act SET act_title = 'Act Redux' WHERE actID >= 1 AND actID <= 2`),
	}
}

// inSession wraps a transaction's effect in one snapshot session, so its
// statements record against a frozen view and commit as one WAL batch.
func inSession(st *core.Store, fn concurrentTxn) error {
	s, err := st.NewSession()
	if err != nil {
		return err
	}
	if err := fn(&sessionStore{s: s}); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}

// sessionStore adapts a Session to the mutator vocabulary.
type sessionStore struct {
	s *core.Session
}

func (w *sessionStore) Exec(stmt string) (int64, error) { return w.s.Exec(stmt) }
func (w *sessionStore) AddDocuments(docs []*xmltree.Document) ([]int64, error) {
	return nil, w.s.AddDocuments(docs)
}
func (w *sessionStore) RemoveDocument(id int64) error { return w.s.RemoveDocument(id) }
func (w *sessionStore) SpliceFragment(table, col string, id int64, frags []string) error {
	return w.s.SpliceFragment(table, col, id, frags)
}

// runConcurrentTimeline executes the interleaved session workload on
// vfs. Sessions A and B are open simultaneously with their ops recorded
// interleaved; session C records an insert and is still uncommitted when
// the store closes (or the injected crash hits).
func runConcurrentTimeline(vfs storage.VFS, cfg crashConfig, docs []*xmltree.Document) error {
	format := cfg.format
	st, err := core.NewStore(corpus.ShakespeareDTD, core.Config{
		Algorithm:   cfg.alg,
		ForceFormat: &format,
		Engine:      engine.Config{MVCC: true, WALDir: "wal", WALSync: cfg.sync, VFS: vfs},
	})
	if err != nil {
		return err
	}
	txns := concurrentTxns(cfg, docs)

	// Transactions 1 and 2: single-doc loads, each its own session.
	if err := inSession(st, txns[0]); err != nil {
		return err
	}
	if err := inSession(st, txns[1]); err != nil {
		return err
	}

	// Transactions 3 and 4 interleave: both sessions (plus the in-flight
	// C) are open at once; ops record against their own snapshots before
	// either commits. A commits first, then a checkpoint runs while B
	// and C are still open, then B commits.
	sa, err := st.NewSession()
	if err != nil {
		return err
	}
	sb, err := st.NewSession()
	if err != nil {
		return err
	}
	sc, err := st.NewSession()
	if err != nil {
		return err
	}
	wa := &sessionStore{s: sa}
	wb := &sessionStore{s: sb}
	if _, err := sc.Exec(`INSERT INTO play (playID, play_title) VALUES (-99, 'ghost')`); err != nil {
		return err
	}
	if err := txns[2](wa); err != nil {
		sa.Rollback()
		return err
	}
	if err := txns[3](wb); err != nil {
		sb.Rollback()
		return err
	}
	if err := sa.Commit(); err != nil {
		return err
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	if err := sb.Commit(); err != nil {
		return err
	}

	// Transaction 5: remove + add in one session. Transaction 6: a
	// direct autocommit statement. Session C never commits.
	if err := inSession(st, txns[4]); err != nil {
		return err
	}
	if err := txns[5](st); err != nil {
		return err
	}
	return st.Close()
}

func TestCrashMatrixConcurrent(t *testing.T) {
	docs := crashDocs(t)
	for _, cfg := range crashConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			txns := concurrentTxns(cfg, docs)

			counter := &storage.FaultVFS{Inner: storage.NewMemVFS()}
			if err := runConcurrentTimeline(counter, cfg, docs); err != nil {
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

			// twin(n) applied the first n committed transactions, in
			// commit order, on a plain unlogged single-user store.
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
					if err := txns[i](tw); err != nil {
						t.Fatalf("twin txn %d: %v", i, err)
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
					err := runConcurrentTimeline(fv, cfg, docs)
					if err == nil {
						t.Fatalf("%s: timeline survived its injected fault", name)
					}
					if !errors.Is(err, storage.ErrCrashed) {
						t.Fatalf("%s: timeline failed outside the fault: %v", name, err)
					}

					format := cfg.format
					rec, err := core.OpenRecovered(core.Config{
						ForceFormat: &format,
						Engine:      engine.Config{MVCC: true, WALDir: "wal", WALSync: cfg.sync, VFS: mem},
					})
					if err != nil {
						if errors.Is(err, core.ErrNoCheckpoint) && op <= firstCheckpoint {
							continue
						}
						t.Fatalf("%s: recovery failed: %v", name, err)
					}
					committed := int(rec.CommittedBatches())
					if committed > len(txns) {
						t.Fatalf("%s: recovered %d batches from %d transactions", name, committed, len(txns))
					}
					// The in-flight transaction must have vanished: it
					// never reached the WAL.
					res, err := rec.Query(`SELECT COUNT(*) FROM play WHERE playID = -99`)
					if err != nil {
						t.Fatalf("%s: querying recovered store: %v", name, err)
					}
					if res.Rows[0][0].Int() != 0 {
						t.Fatalf("%s: in-flight transaction survived the crash", name)
					}
					if err := difftest.CompareStores(rec, twin(committed)); err != nil {
						t.Fatalf("%s: recovered store differs from %d-txn twin: %v", name, committed, err)
					}

					// Resume the uncommitted suffix directly and land in
					// the never-crashed state.
					for i := committed; i < len(txns); i++ {
						if err := txns[i](rec); err != nil {
							t.Fatalf("%s: resuming txn %d after recovery: %v", name, i, err)
						}
					}
					if err := difftest.CompareStores(rec, twin(len(txns))); err != nil {
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
