package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSessionRaceStress drives concurrent writer and reader sessions to
// give the race detector surface area (it runs under -race in make ci).
// Writers increment a counter row with optimistic retry; the final value
// must equal the number of successful commits — the classic lost-update
// check, under real goroutine interleavings this time.
func TestSessionRaceStress(t *testing.T) {
	const (
		writers    = 4
		readers    = 4
		increments = 12
	)
	st, _ := mvccPlayStore(t, XORator, 1)
	if _, err := st.Exec(`INSERT INTO play (playID, play_title) VALUES (-100, '0')`); err != nil {
		t.Fatal(err)
	}
	// Readers also plan a fragment-index scan of play, whose indexes
	// every writer's commit maintains, and an index nested loop from
	// play into act: plan-time probes and the operators read the live
	// structures under the shared latch while commits wait.
	if err := st.DB.CreateIndexes("act", []string{"act_parentID"}); err != nil {
		t.Fatal(err)
	}
	indexed := map[string]string{
		`SELECT playID FROM play WHERE findKeyInElm(play_personae, 'PERSONA', 'HAMLET') = 1`: "IndexedFragScan",
		`SELECT play_title, actID FROM play, act WHERE act_parentID = playID`:                "IndexLoopJoin",
	}
	for q, op := range indexed {
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := s.es.Explain(q)
		s.Rollback()
		if err != nil || !strings.Contains(ex, op) {
			t.Fatalf("%s plans no %s (%v):\n%s", q, op, err, ex)
		}
	}

	var commits atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					s, err := st.NewSession()
					if err != nil {
						errc <- err
						return
					}
					res, err := s.Query(`SELECT play_title FROM play WHERE playID = -100`)
					if err != nil {
						s.Rollback()
						errc <- err
						return
					}
					var n int
					fmt.Sscanf(res.Rows[0][0].Str(), "%d", &n)
					if _, err := s.Exec(fmt.Sprintf(
						`UPDATE play SET play_title = '%d' WHERE playID = -100`, n+1)); err != nil {
						s.Rollback()
						errc <- err
						return
					}
					err = s.Commit()
					if err == nil {
						commits.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						errc <- err
						return
					}
					// Conflict: retry on a fresh snapshot.
				}
			}
		}()
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*increments; i++ {
				s, err := st.NewSession()
				if err != nil {
					errc <- err
					return
				}
				// Repeated reads inside one snapshot must agree even
				// while writers commit around it.
				first, err := s.Query(`SELECT play_title FROM play WHERE playID = -100`)
				if err != nil {
					s.Rollback()
					errc <- err
					return
				}
				again, err := s.Query(`SELECT play_title FROM play WHERE playID = -100`)
				if err != nil {
					s.Rollback()
					errc <- err
					return
				}
				if first.Rows[0][0].Str() != again.Rows[0][0].Str() {
					errc <- fmt.Errorf("snapshot wobbled: %q then %q",
						first.Rows[0][0].Str(), again.Rows[0][0].Str())
					s.Rollback()
					return
				}
				for q := range indexed {
					first, err := s.Query(q)
					if err == nil {
						again, err = s.Query(q)
					}
					if err != nil {
						s.Rollback()
						errc <- err
						return
					}
					if len(first.Rows) == 0 || !reflect.DeepEqual(first.Rows, again.Rows) {
						s.Rollback()
						errc <- fmt.Errorf("%s: %d rows, then %d", q, len(first.Rows), len(again.Rows))
						return
					}
				}
				s.Rollback()
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := int64(writers * increments)
	if commits.Load() != want {
		t.Fatalf("commits = %d, want %d", commits.Load(), want)
	}
	res, err := st.Query(`SELECT play_title FROM play WHERE playID = -100`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != fmt.Sprint(want) {
		t.Fatalf("counter = %s, want %d (lost update under races)", got, want)
	}
}
