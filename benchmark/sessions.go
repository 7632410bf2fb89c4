package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/exec"
	"repro/internal/engine/plan"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xmltree"
)

// sessionOpKinds are the classes of oltp_sessions, with their shares of
// the mix below.
var sessionOpKinds = []string{"read", "update", "splice", "add", "remove"}

const (
	readShare   = 60 // point read by ID
	updateShare = 20 // single-row UPDATE in a session, then Commit
	spliceShare = 10 // SpliceFragment in a session, then Commit
	addShare    = 5  // AddXML of one document
	// the remaining 5 % remove one document in a session

	hotSetSize = 64 // fits the 128-entry XADT decode cache
	hotShare   = 80 // % of keyed ops that draw from the hot set

	readSQL = `SELECT getElm(pp_slist, 'aTuple', 'title', '') FROM pp WHERE ppID = %d`
)

// updateColumns gives each client a column of its own to update, so that
// two clients still conflict on a row but the last value a client
// committed to its column is known.
var updateColumns = []string{"pp_volume", "pp_number"}

type opRecord struct {
	kind  int
	start time.Time
	dur   time.Duration
}

// sessionClient is one closed-loop client: it sends its next operation
// when the previous one has completed.
type sessionClient struct {
	id   int
	st   *core.Store
	tr   *tracer
	rep  *report
	rng  *rand.Rand
	hot  []int64
	keys int64 // reads, updates and splices draw IDs from 1..keys
	// pool holds the document IDs this client may remove: its share of
	// the initial documents' tail, then whatever it added itself. No
	// other operation touches those documents, so every keyed operation
	// must find exactly one row.
	pool      []int64
	spare     []string // whole documents, for adds
	fragments []string // sList fragments, for splices
	column    string

	ops        []opRecord
	commits    int
	conflicts  int
	adds       int
	removes    int
	liveBytes  int64
	docBytes   map[int64]int64
	lastUpdate map[int64]string
	commitMS   []float64
	seq        int64
}

func (c *sessionClient) key() int64 {
	if c.rng.Intn(100) < hotShare {
		return c.hot[c.rng.Intn(len(c.hot))]
	}
	return 1 + c.rng.Int63n(c.keys)
}

// inSession runs body in a fresh session and commits, again from the
// start when the commit loses a write-write conflict.
func (c *sessionClient) inSession(opSpan int, opID int64, body func(s *core.Session) error) error {
	for {
		var s *core.Session
		if _, err := c.tr.timed("mvcc.begin", opSpan, opID, func() error {
			var err error
			s, err = c.st.NewSession()
			return err
		}); err != nil {
			return err
		}
		if _, err := c.tr.timed("core.statement", opSpan, opID, func() error { return body(s) }); err != nil {
			s.Rollback()
			return err
		}
		d, err := c.tr.timed("core.commit", opSpan, opID, s.Commit)
		c.commitMS = append(c.commitMS, ms(d))
		if err == nil {
			c.commits++
			return nil
		}
		if !errors.Is(err, core.ErrConflict) {
			return err
		}
		c.conflicts++
	}
}

func (c *sessionClient) add(opSpan int, opID int64) error {
	text := c.spare[c.rng.Intn(len(c.spare))]
	var ids []int64
	d, err := c.tr.timed("core.commit", opSpan, opID, func() error {
		var err error
		ids, err = c.st.AddXML([]string{text})
		return err
	})
	if err != nil {
		return err
	}
	c.commitMS = append(c.commitMS, ms(d))
	c.commits++
	c.adds++
	c.pool = append(c.pool, ids[0])
	c.docBytes[ids[0]] = int64(len(text))
	c.liveBytes += int64(len(text))
	return nil
}

// step runs one operation drawn from the mix.
func (c *sessionClient) step() error {
	c.seq++
	opID := int64(c.id)<<32 | c.seq
	draw := c.rng.Intn(100)
	kind := 4
	switch {
	case draw < readShare:
		kind = 0
	case draw < readShare+updateShare:
		kind = 1
	case draw < readShare+updateShare+spliceShare:
		kind = 2
	case draw < readShare+updateShare+spliceShare+addShare || len(c.pool) == 0:
		kind = 3
	}
	opSpan := c.tr.begin("op."+sessionOpKinds[kind], rootSpan, opID)
	start := time.Now()
	var err error
	switch kind {
	case 0:
		id := c.key()
		var res *engine.Result
		res, err = c.st.Query(fmt.Sprintf(readSQL, id))
		if err == nil {
			c.rep.check(len(res.Rows) == 1, "read of ppID %d returned %d rows", id, len(res.Rows))
		}
	case 1:
		id := c.key()
		value := fmt.Sprintf("c%d-%d", c.id, c.seq)
		err = c.inSession(opSpan, opID, func(s *core.Session) error {
			n, err := s.Exec(fmt.Sprintf("UPDATE pp SET %s = '%s' WHERE ppID = %d", c.column, value, id))
			if err == nil && n != 1 {
				err = fmt.Errorf("UPDATE of ppID %d touched %d rows", id, n)
			}
			return err
		})
		c.lastUpdate[id] = value
	case 2:
		id := c.key()
		frag := c.fragments[c.rng.Intn(len(c.fragments))]
		err = c.inSession(opSpan, opID, func(s *core.Session) error {
			return s.SpliceFragment("pp", "pp_slist", id, []string{frag})
		})
	case 3:
		err = c.add(opSpan, opID)
	case 4:
		docID := c.pool[len(c.pool)-1]
		c.pool = c.pool[:len(c.pool)-1]
		err = c.inSession(opSpan, opID, func(s *core.Session) error { return s.RemoveDocument(docID) })
		c.removes++
		c.liveBytes -= c.docBytes[docID]
	}
	d := time.Since(start)
	c.tr.end(opSpan)
	if err != nil {
		return fmt.Errorf("client %d %s: %w", c.id, sessionOpKinds[kind], err)
	}
	if kind != 0 {
		c.rep.check(true, "")
	}
	c.ops = append(c.ops, opRecord{kind, start, d})
	return nil
}

func runSessions(cfg runConfig) (*report, error) {
	tr := cfg.Tracer
	rep := newReport("oltp_sessions")
	dir := filepath.Join(cfg.OutDir, fmt.Sprintf("sessions-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	nClients := 2
	if runtime.NumCPU() < nClients {
		nClients = runtime.NumCPU()
	}

	var vfs storage.VFS
	var counting *countingVFS
	if tr != nil {
		counting = newCountingVFS(storage.OSFS{}, tr)
		vfs = counting
	}

	// Set-up, several times over: generate the documents, load the first
	// SessionDocs of them into a fresh MVCC store whose WAL syncs on
	// every commit, index, runstats.
	var all, initial corpus
	var b *built
	var setupS, loadMBs []float64
	for i := 0; i < cfg.Scale.SetupRepeats; i++ {
		if b != nil {
			if err := b.Store.Close(); err != nil {
				return nil, err
			}
			b = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		all, err = generateCorpus("sigmod", cfg.Seed, cfg.Scale.SessionDocs+cfg.Scale.SessionSpare)
		if err != nil {
			return nil, err
		}
		initial = all.first(cfg.Scale.SessionDocs)
		setupID := tr.begin("core.setup", rootSpan, 0)
		b, err = buildStore(tr, setupID, initial, core.Config{Engine: engine.Config{
			MVCC: true, WALDir: filepath.ToSlash(filepath.Join(dir, fmt.Sprintf("s%d", i))), VFS: vfs,
		}}, true)
		tr.end(setupID)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		loadMBs = append(loadMBs, b.loadMBs())
	}
	st := b.Store
	heapMB := liveHeapMB()

	// Material for adds and splices: the documents past the initial set.
	spare := all.Texts[cfg.Scale.SessionDocs:]
	var fragments []string
	for _, d := range all.Docs[cfg.Scale.SessionDocs:] {
		if sl := d.Root.FirstChildNamed("sList"); sl != nil {
			fragments = append(fragments, xmltree.Serialize(sl))
		}
	}
	poolSize := cfg.Scale.SessionDocs / 20
	keys := int64(cfg.Scale.SessionDocs - nClients*poolSize)
	hotRng := rand.New(rand.NewSource(cfg.Seed))
	hot := make([]int64, hotSetSize)
	for i := range hot {
		hot[i] = 1 + hotRng.Int63n(keys)
	}

	p := rep.PerLayer
	if tr != nil {
		if err := probeQuiescent(tr, st, rep, hot); err != nil {
			return nil, err
		}
	}

	clients := make([]*sessionClient, nClients)
	for i := range clients {
		c := &sessionClient{
			id: i, st: st, tr: tr, rep: rep, rng: rand.New(rand.NewSource(cfg.Seed*1000 + int64(i))),
			hot: hot, keys: keys, spare: spare, fragments: fragments,
			column:   updateColumns[i%len(updateColumns)],
			docBytes: map[int64]int64{}, lastUpdate: map[int64]string{},
		}
		for k := 0; k < poolSize; k++ {
			id := keys + int64(i*poolSize+k) + 1
			c.pool = append(c.pool, id)
			c.docBytes[id] = int64(len(initial.Texts[id-1]))
		}
		clients[i] = c
	}

	logBefore, _ := counting.counts()
	cacheBefore := st.DB.XADTCacheStats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	duration := cfg.timed()
	deadline := start.Add(duration)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *sessionClient) {
			defer wg.Done()
			for n := 0; n < cfg.Scale.MinOps || time.Now().Before(deadline); n++ {
				if errs[i] = c.step(); errs[i] != nil {
					return
				}
			}
		}(i, c)
	}
	// One checkpoint half-way, while the clients run: it quiesces
	// commits, so whoever is committing then waits for it.
	time.Sleep(duration / 2)
	ckStart := time.Now()
	ckDur, ckErr := tr.timed("core.checkpoint", rootSpan, 0, st.Checkpoint)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if ckErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", ckErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Conservation: the documents and rows the store holds are the
	// initial ones plus the adds minus the removes, and every client's
	// last committed update is what its column holds.
	wantDocs := int64(cfg.Scale.SessionDocs)
	liveBytes := initial.Bytes
	var commits, conflicts int
	for _, c := range clients {
		wantDocs += int64(c.adds - c.removes)
		liveBytes += c.liveBytes
		commits += c.commits
		conflicts += c.conflicts
	}
	res, err := st.Query("SELECT COUNT(*) FROM pp")
	if err != nil {
		return nil, err
	}
	rep.check(len(res.Rows) == 1 && res.Rows[0][0].Int() == wantDocs, "pp holds %v rows, want %d", res.Rows, wantDocs)
	registered := map[int64]bool{}
	if reg := st.Table("xml$docs"); reg != nil {
		_ = reg.Heap.Scan(func(_ storage.RID, row []types.Value) error {
			registered[row[0].Int()] = true
			return nil
		})
	}
	rep.check(int64(len(registered)) == wantDocs, "registry holds %d documents, want %d", len(registered), wantDocs)
	for _, c := range clients {
		checked := 0
		for id, want := range c.lastUpdate {
			if checked++; checked > 50 {
				break
			}
			res, err := st.Query(fmt.Sprintf("SELECT %s FROM pp WHERE ppID = %d", c.column, id))
			if err != nil {
				return nil, err
			}
			rep.check(len(res.Rows) == 1 && res.Rows[0][0].Str() == want, "ppID %d: %s = %v, last committed %q", id, c.column, res.Rows, want)
		}
	}

	var allMS []float64
	kindMS := make([][]float64, len(sessionOpKinds))
	var stall time.Duration
	ckEnd := ckStart.Add(ckDur)
	for _, c := range clients {
		for _, op := range c.ops {
			allMS = append(allMS, ms(op.dur))
			kindMS[op.kind] = append(kindMS[op.kind], ms(op.dur))
			if op.start.Before(ckEnd) && op.start.Add(op.dur).After(ckStart) && op.dur > stall {
				stall = op.dur
			}
		}
	}
	var classes []float64
	for _, k := range kindMS {
		classes = append(classes, median(k))
	}
	rep.OpMS, rep.ClassMS = allMS, map[string][]float64{}
	for i, k := range sessionOpKinds {
		rep.ClassMS[k] = kindMS[i]
	}
	rep.EndToEnd = map[string]float64{
		"setup_s":       median(setupS),
		"op_p50_ms":     median(allMS),
		"ops_per_s":     ratio(float64(len(allMS)), elapsed.Seconds()),
		"store_heap_mb": heapMB,
		// Splices replace a section list with another document's, of the
		// same size on average; their bytes are not tracked.
		"stored_bytes_per_xml_byte": ratio(float64(storedBytes(st)), float64(liveBytes)),
	}
	if tr != nil {
		for i, k := range sessionOpKinds {
			p["core.op_ms."+k] = classes[i]
		}
		var commitMS []float64
		for _, c := range clients {
			commitMS = append(commitMS, c.commitMS...)
		}
		p["core.op_tail_ms"] = percentile(allMS, 0.95)
		p["core.class_geomean_ms"] = geomean(classes)
		p["core.commit_ms"] = median(commitMS)
		p["core.checkpoint_stall_ms"] = ms(stall)
		p["core.alloc_mb_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, float64(len(allMS)))
		p["core.load_mb_s"] = median(loadMBs)
		p["core.newstore_ms"] = ms(b.NewStore)
		p["xmltree.parse_mb_s"] = ratio(float64(b.XMLBytes)/1e6, b.Parse.Seconds())
		p["shred.load_mb_s"] = ratio(float64(b.XMLBytes)/1e6, b.Shred.Seconds())
		p["index.build_ms"] = ms(b.Index)
		p["catalog.runstats_ms"] = ms(b.Stats)
		p["mvcc.conflict_share"] = ratio(float64(conflicts), float64(commits+conflicts))
		created, undo := st.DB.TxnMgr.Versions()
		p["mvcc.live_versions_end"] = float64(created + undo)
		logAfter, _ := counting.counts()
		p["wal.bytes_per_xml_byte"] = ratio(float64(logAfter.WriteBytes), float64(liveBytes))
		p["wal.write_calls_per_commit"] = ratio(float64(logAfter.Writes-logBefore.Writes), float64(commits))
		p["wal.syncs_per_commit"] = ratio(float64(logAfter.Syncs-logBefore.Syncs), float64(commits))
		p["wal.sync_time_share"] = ratio(ms(logAfter.SyncTime-logBefore.SyncTime), sum(commitMS))
		cache := st.DB.XADTCacheStats()
		hits, misses := float64(cache.Hits-cacheBefore.Hits), float64(cache.Misses-cacheBefore.Misses)
		p["xadt.cache_hit_share"] = ratio(hits, hits+misses)
		p["xadt.cache_lookups_per_op"] = ratio(hits+misses, float64(len(allMS)))
		p["storage.data_bytes_per_xml_byte"] = ratio(float64(st.Stats().DataBytes), float64(liveBytes))
		probeBTree(p, st)
		probeStorage(p, st)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// probeQuiescent measures, before the clients start, what cannot be
// measured beside them: opening and dropping a snapshot, and a point
// read taken apart into parse, plan and drain. With no session open the
// heap is the committed state, so planning against it directly is the
// read a session would make.
func probeQuiescent(tr *tracer, st *core.Store, rep *report, hot []int64) error {
	const sessions, reads = 2000, 200
	start := time.Now()
	for i := 0; i < sessions; i++ {
		s, err := st.NewSession()
		if err != nil {
			return err
		}
		s.Rollback()
	}
	rep.PerLayer["mvcc.begin_rollback_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / sessions

	var parseUS, planUS, drainMS []float64
	joins := 0
	for i := 0; i < reads; i++ {
		text := fmt.Sprintf(readSQL, hot[i%len(hot)])
		opID := int64(-1 - i)
		qid := tr.begin("core.query", rootSpan, opID)
		parse, err := tr.timed("sql.parse", qid, opID, func() error {
			_, err := sql.Parse(text)
			return err
		})
		if err != nil {
			return err
		}
		var op exec.Operator
		planning, err := tr.timed("plan.plan", qid, opID, func() error {
			var err error
			op, err = st.DB.Plan(text)
			return err
		})
		if err != nil {
			return err
		}
		joins = plan.CountJoins(op)
		var rows [][]types.Value
		drain, err := tr.timed("exec.drain", qid, opID, func() error {
			var err error
			rows, err = exec.Drain(op)
			return err
		})
		tr.end(qid)
		if err != nil {
			return err
		}
		rep.check(len(rows) == 1, "staged read returned %d rows", len(rows))
		parseUS = append(parseUS, float64(parse.Nanoseconds())/1e3)
		planUS = append(planUS, float64((planning-parse).Nanoseconds())/1e3)
		drainMS = append(drainMS, ms(drain))
	}
	rep.PerLayer["sql.parse_us"] = mean(parseUS)
	rep.PerLayer["plan.plan_us"] = mean(planUS)
	rep.PerLayer["plan.join_count"] = float64(joins)
	rep.PerLayer["exec.drain_ms"] = mean(drainMS)
	return nil
}
