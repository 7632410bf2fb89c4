package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/plan"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// expectedSeed1 pins what the twelve queries return at seed 1, at both
// scales, and says why the two formulations of some queries differ.
//
//go:embed testdata/expected_seed1.json
var expectedSeed1 []byte

type expectedFile struct {
	Differ map[string]string               `json:"formulations_differ"`
	Scales map[string]map[string]rowCounts `json:"scales"`
}

// paperSide is one mapping's half of the paper workloads: its two
// stores and everything measured on them.
type paperSide struct {
	rep    *report
	hybrid bool
	// stores[0] holds the Shakespeare corpus, stores[1] the SIGMOD one.
	stores [2]*built

	setupS  []float64
	loadMBs []float64

	passMS  []float64            // untraced passes, through Store.Query
	queryMS map[string][]float64 // per query, from the same passes

	tracedPassMS []float64
	drainMS      []float64 // per traced pass
	allocMB      []float64 // per traced pass
	drainAlloc   []float64 // bytes allocated inside exec.Drain, per traced pass
	parseUS      []float64 // sql.Parse span, per statement
	planUS       []float64 // Database.Plan span, which parses too, per statement
	rowsOut      int       // per pass
	joins        int       // per pass

	// XADT decode-cache counters when the timed section began.
	hits0, misses0 uint64
}

func (s *paperSide) sqlOf(q query) string {
	if s.hybrid {
		return q.Hybrid
	}
	return q.XORator
}

func (s *paperSide) want(o oracle, id string) int {
	if s.hybrid {
		return o.Rows[id].Hybrid
	}
	return o.Rows[id].XORator
}

// forEachQuery calls fn for the twelve queries in pass order, each with
// the store that holds its corpus.
func (s *paperSide) forEachQuery(fn func(q query, st *core.Store) error) error {
	for i, qs := range [2][]query{shakespeareQueries, sigmodQueries} {
		for _, q := range qs {
			if err := fn(q, s.stores[i].Store); err != nil {
				return fmt.Errorf("%s: %w", q.ID, err)
			}
		}
	}
	return nil
}

func (s *paperSide) checkRows(o oracle, id string, rows [][]types.Value) {
	s.rep.check(len(rows) == s.want(o, id), "%s returned %d rows, the documents hold %d", id, len(rows), s.want(o, id))
	if id == "QG5" && len(rows) == 1 && len(rows[0]) == 1 {
		got := rows[0][0]
		s.rep.check(got.Kind() == types.KindInt && got.Int() == int64(o.Sections),
			"QG5 counted %v sections, the documents hold %d", got, o.Sections)
	}
}

// pass runs the twelve queries once the way a user would, through
// Store.Query, and records the wall time of the pass and of each query
// unless it is a warm-up.
func (s *paperSide) pass(o oracle, record bool) error {
	start := time.Now()
	err := s.forEachQuery(func(q query, st *core.Store) error {
		t0 := time.Now()
		res, err := st.Query(s.sqlOf(q))
		d := time.Since(t0)
		if err != nil {
			return err
		}
		s.checkRows(o, q.ID, res.Rows)
		if record {
			s.queryMS[q.ID] = append(s.queryMS[q.ID], ms(d))
		}
		return nil
	})
	if record {
		s.passMS = append(s.passMS, ms(time.Since(start)))
	}
	return err
}

// tracedPass runs the twelve queries through the stages Store.Query is
// made of, each in its own span: sql.Parse, Database.Plan, exec.Drain.
// Database.Plan parses again, so planning time is its span less the
// parse span.
func (s *paperSide) tracedPass(tr *tracer, o oracle, passNo int) error {
	var m0, m1, d0, d1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passID := tr.begin("core.pass", rootSpan, int64(passNo))
	start := time.Now()
	var drain time.Duration
	var drainAlloc uint64
	rows, joins := 0, 0
	err := s.forEachQuery(func(q query, st *core.Store) error {
		text := s.sqlOf(q)
		opID := int64(passNo)
		qid := tr.begin("core.query", passID, opID)
		defer tr.end(qid)
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
		joins += plan.CountJoins(op)
		var out [][]types.Value
		runtime.ReadMemStats(&d0)
		d, err := tr.timed("exec.drain", qid, opID, func() error {
			var err error
			out, err = exec.Drain(op)
			return err
		})
		runtime.ReadMemStats(&d1)
		if err != nil {
			return err
		}
		drain += d
		drainAlloc += d1.TotalAlloc - d0.TotalAlloc
		rows += len(out)
		s.checkRows(o, q.ID, out)
		s.parseUS = append(s.parseUS, float64(parse.Nanoseconds())/1e3)
		s.planUS = append(s.planUS, float64(planning.Nanoseconds())/1e3)
		return nil
	})
	s.tracedPassMS = append(s.tracedPassMS, ms(time.Since(start)))
	tr.end(passID)
	runtime.ReadMemStats(&m1)
	s.drainMS = append(s.drainMS, ms(drain))
	s.drainAlloc = append(s.drainAlloc, float64(drainAlloc))
	s.allocMB = append(s.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	s.rowsOut, s.joins = rows, joins
	return err
}

func (s *paperSide) xmlBytes() int64 { return s.stores[0].XMLBytes + s.stores[1].XMLBytes }

func (s *paperSide) cacheStats() (hits, misses uint64) {
	for _, b := range s.stores {
		c := b.Store.DB.XADTCacheStats()
		hits += c.Hits
		misses += c.Misses
	}
	return
}

// runPaper runs paper_xorator, paper_hybrid or both. With both, every
// pass of one is followed by a pass of the other and the order flips
// each round, so that drift in the machine lands on both alike; sampling
// one after the other is what made earlier ratios in this repository.
// Each side is measured for cfg.Seconds.
func runPaper(cfg runConfig, workloads []string) ([]*report, map[string]float64, error) {
	tr := cfg.Tracer
	sides := make([]*paperSide, len(workloads))
	for i, w := range workloads {
		sides[i] = &paperSide{rep: newReport(w), hybrid: w == "paper_hybrid", queryMS: map[string][]float64{}}
	}

	// Set-up, several times over so that setup_s is a median: generate
	// the corpora, then build each side's two stores. The last set-up's
	// stores are the ones measured.
	var corpora [2]corpus
	for rep := 0; rep < cfg.Scale.SetupRepeats; rep++ {
		for _, s := range sides {
			s.stores = [2]*built{}
		}
		runtime.GC()
		genStart := time.Now()
		var err error
		if corpora, err = generatePair(cfg.Seed, cfg.Scale.Plays, cfg.Scale.Proceedings); err != nil {
			return nil, nil, err
		}
		gen := time.Since(genStart)
		for _, s := range sides {
			alg := core.XORator
			if s.hybrid {
				alg = core.Hybrid
			}
			setupID := tr.begin("core.setup", rootSpan, 0)
			buildStart := time.Now()
			for i, c := range corpora {
				b, err := buildStore(tr, setupID, c, core.Config{Algorithm: alg}, false)
				if err != nil {
					return nil, nil, err
				}
				s.stores[i] = b
			}
			tr.end(setupID)
			s.setupS = append(s.setupS, (gen + time.Since(buildStart)).Seconds())
			load := s.stores[0].loadTime() + s.stores[1].loadTime()
			s.loadMBs = append(s.loadMBs, ratio(float64(s.xmlBytes())/1e6, load.Seconds()))
		}
	}

	orc := expectedRows(corpora[0].Docs, corpora[1].Docs)
	for _, s := range sides {
		checkPinned(s.rep, cfg, orc)
	}
	heapMB := liveHeapMB()

	// Warm-up: lazy state fills and the heap reaches its working size.
	warmEnd := time.Now().Add(cfg.timed() * time.Duration(len(sides)) * 15 / 100)
	for n := 0; n < 2 || time.Now().Before(warmEnd); n++ {
		for _, s := range sides {
			if err := s.pass(orc, false); err != nil {
				return nil, nil, err
			}
		}
	}

	runtime.GC()
	for _, s := range sides {
		s.hits0, s.misses0 = s.cacheStats()
	}
	deadline := time.Now().Add(cfg.timed() * time.Duration(len(sides)))
	for round := 0; round < cfg.Scale.MinOps || time.Now().Before(deadline); round++ {
		for k := range sides {
			s := sides[(k+round)%len(sides)]
			runtime.GC()
			if err := s.pass(orc, true); err != nil {
				return nil, nil, err
			}
			if tr != nil {
				if err := s.tracedPass(tr, orc, round); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	var reports []*report
	for _, s := range sides {
		r := s.rep
		r.OpMS, r.ClassMS = s.passMS, s.queryMS
		var stored int64
		for _, b := range s.stores {
			stored += storedBytes(b.Store)
		}
		r.EndToEnd = map[string]float64{
			"setup_s":                   median(s.setupS),
			"op_p50_ms":                 median(s.passMS),
			"ops_per_s":                 ratio(float64(len(s.passMS)), sum(s.passMS)/1e3),
			"store_heap_mb":             heapMB,
			"stored_bytes_per_xml_byte": ratio(float64(stored), float64(s.xmlBytes())),
		}
		if tr != nil {
			s.perLayer()
		}
		reports = append(reports, r)
	}

	var hx map[string]float64
	if len(sides) == 2 && tr != nil {
		x, h := sides[0], sides[1]
		if x.hybrid {
			x, h = h, x
		}
		// Loading is the paper's: shredding documents into tables, without
		// the index builds and runstats that follow.
		hx = map[string]float64{"load": ratio((h.stores[0].Load + h.stores[1].Load).Seconds(),
			(x.stores[0].Load + x.stores[1].Load).Seconds())}
		for _, id := range queryIDs {
			hx[id] = ratio(median(h.queryMS[id]), median(x.queryMS[id]))
		}
	}
	return reports, hx, nil
}

// perLayer fills the per-layer metrics of one side from its traced
// passes, its set-up spans and the layer probes.
func (s *paperSide) perLayer() {
	p := s.rep.PerLayer
	h, m := s.cacheStats()
	hits, misses := float64(h-s.hits0), float64(m-s.misses0)
	var classes []float64
	for _, id := range queryIDs {
		p["core.query_ms."+id] = median(s.queryMS[id])
		classes = append(classes, median(s.queryMS[id]))
	}
	p["core.op_tail_ms"] = percentile(s.passMS, 0.75)
	p["core.class_geomean_ms"] = geomean(classes)
	untraced, traced := median(s.passMS), median(s.tracedPassMS)
	p["core.trace_overhead_share"] = ratio(traced-untraced, untraced)
	// The rest of a traced pass is the harness itself: reading the
	// allocator's counters and checking rows.
	p["core.span_coverage_share"] = ratio(sum(s.parseUS)/1e3+sum(s.planUS)/1e3+sum(s.drainMS), sum(s.tracedPassMS))
	p["core.alloc_mb_per_op"] = median(s.allocMB)
	p["core.load_mb_s"] = median(s.loadMBs)
	p["sql.parse_us"] = mean(s.parseUS)
	p["plan.plan_us"] = mean(s.planUS) - mean(s.parseUS)
	p["plan.join_count"] = float64(s.joins)
	p["exec.drain_ms"] = median(s.drainMS)
	p["exec.rows_out_per_pass"] = float64(s.rowsOut)
	p["exec.alloc_bytes_per_row"] = ratio(median(s.drainAlloc), float64(s.rowsOut))
	p["xadt.cache_hit_share"] = ratio(hits, hits+misses)
	p["xadt.cache_lookups_per_op"] = ratio(hits+misses, float64(len(s.passMS)+len(s.tracedPassMS)))

	var newStore, parse, shred, index, stats time.Duration
	var dataBytes int64
	for _, b := range s.stores {
		newStore += b.NewStore
		parse += b.Parse
		shred += b.Shred
		index += b.Index
		stats += b.Stats
		dataBytes += b.Store.Stats().DataBytes
	}
	xmlMB := float64(s.xmlBytes()) / 1e6
	p["core.newstore_ms"] = ms(newStore)
	p["xmltree.parse_mb_s"] = ratio(xmlMB, parse.Seconds())
	p["shred.load_mb_s"] = ratio(xmlMB, shred.Seconds())
	if s.hybrid {
		p["shred.hybrid_load_mb_s"] = p["shred.load_mb_s"]
	}
	p["index.build_ms"] = ms(index)
	p["catalog.runstats_ms"] = ms(stats)
	p["storage.data_bytes_per_xml_byte"] = ratio(float64(dataBytes), float64(s.xmlBytes()))

	probeStorage(p, s.stores[0].Store, s.stores[1].Store)
	probeBTree(p, s.stores[0].Store, s.stores[1].Store)
	if !s.hybrid {
		xp := newXADTProbe()
		xp.methods(s.stores[0].Store, "speech", "speech_line", shakespeareCalls)
		xp.methods(s.stores[1].Store, "pp", "pp_slist", sigmodCalls)
		xp.fill(p)
		ip := newXIndexProbe()
		ip.lookups(s.stores[0].Store, "speech", "speech_line", "STAGEDIR", "Rising")
		ip.lookups(s.stores[0].Store, "speech", "speech_speaker", "SPEAKER", "ROMEO")
		ip.lookups(s.stores[1].Store, "pp", "pp_slist", "title", "Join")
		ip.addRows(s.stores[0].Store, "speech", "speech_line")
		ip.addRows(s.stores[1].Store, "pp", "pp_slist")
		ip.sizes(s.xmlBytes(), s.stores[0].Store, s.stores[1].Store)
		ip.fill(p)
	}
}

// checkPinned compares the oracle with the counts pinned for seed 1: a
// difference means the generated inputs are no longer the ones earlier
// results were measured on.
func checkPinned(r *report, cfg runConfig, o oracle) {
	if cfg.Seed != 1 {
		return
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedSeed1, &exp); err != nil {
		r.check(false, "testdata/expected_seed1.json: %v", err)
		return
	}
	pinned := exp.Scales[cfg.Scale.Name]
	for _, id := range queryIDs {
		r.check(pinned[id] == o.Rows[id], "%s: seed 1 corpus holds %+v rows, pinned %+v", id, o.Rows[id], pinned[id])
		_, documented := exp.Differ[id]
		r.check(documented || o.Rows[id].Hybrid == o.Rows[id].XORator,
			"%s: Hybrid and XORator return %+v rows and no reason is documented", id, o.Rows[id])
	}
}
