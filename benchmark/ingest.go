package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
)

// ingestPhases are the classes of the ingest workload, in the order a
// round runs them.
var ingestPhases = []string{"load", "index", "stats", "checkpoint", "recover"}

// fingerprint renders what must survive a checkpoint and a recovery: the
// row count of every table and the rows of one selective query.
func fingerprint(st *core.Store, sqlText string) (string, error) {
	var sb strings.Builder
	names := st.DB.Catalog.TableNames()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%d;", n, st.Table(n).Rows())
	}
	res, err := st.Query(sqlText)
	if err != nil {
		return "", err
	}
	for _, row := range res.Rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String(), nil
}

// ingestRound is one operation of the ingest workload: for each of the
// two corpora, a fresh WAL-backed store on the real filesystem with the
// default sync policy (sync on every commit), LoadXML, default indexes,
// runstats, Checkpoint, Close, OpenRecovered.
type ingestRound struct {
	phases   map[string]time.Duration
	total    time.Duration
	scan     time.Duration
	commits  uint64
	builds   [2]*built
	restored [2]*core.Store
}

func (r *ingestRound) close() {
	if r == nil {
		return
	}
	for i, st := range r.restored {
		if st != nil {
			// Nothing was written since recovery, so Close has nothing to lose.
			_ = st.Close()
			r.restored[i] = nil
		}
	}
}

func runIngestRound(cfg runConfig, rep *report, corpora [2]corpus, orc oracle, alg core.Algorithm, vfs storage.VFS, dir string, round int) (*ingestRound, error) {
	tr := cfg.Tracer
	r := &ingestRound{phases: map[string]time.Duration{}}
	opID := int64(round)
	roundID := tr.begin("core.round", rootSpan, opID)
	defer tr.end(roundID)
	start := time.Now()
	for i, c := range corpora {
		q, hybrid := shakespeareQueries[3], alg == core.Hybrid // QS4
		if c.Name == "sigmod" {
			q = sigmodQueries[4] // QG5
		}
		text := q.XORator
		if hybrid {
			text = q.Hybrid
		}
		storeCfg := core.Config{Algorithm: alg, Engine: engine.Config{
			WALDir: filepath.ToSlash(filepath.Join(dir, c.Name)), VFS: vfs,
		}}
		b, err := buildStore(tr, roundID, c, storeCfg, false)
		if err != nil {
			return nil, err
		}
		st := b.Store
		r.builds[i] = b
		b.Store = nil // the timings outlive the round, the store must not
		r.phases["load"] += b.Load
		r.phases["index"] += b.Index
		r.phases["stats"] += b.Stats
		r.commits += st.CommittedBatches()
		before, err := fingerprint(st, text)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			// The log is at its longest just before the checkpoint
			// truncates it: this is the scan a crash here would cost.
			d, err := tr.timed("wal.scan", roundID, opID, func() error {
				fs := vfs
				if fs == nil {
					fs = storage.OSFS{}
				}
				tail, err := wal.Scan(fs, storeCfg.Engine.WALDir)
				if err == nil {
					rep.check(uint64(len(tail.Batches)) == st.CommittedBatches() && !tail.Torn,
						"%s: log holds %d batches, store committed %d", c.Name, len(tail.Batches), st.CommittedBatches())
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			r.scan += d
		}
		d, err := tr.timed("core.checkpoint", roundID, opID, st.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("checkpoint of %s: %w", c.Name, err)
		}
		r.phases["checkpoint"] += d
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close of %s: %w", c.Name, err)
		}
		d, err = tr.timed("core.recover", roundID, opID, func() error {
			var err error
			r.restored[i], err = core.OpenRecovered(storeCfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("recovery of %s: %w", c.Name, err)
		}
		r.phases["recover"] += d
		after, err := fingerprint(r.restored[i], text)
		if err != nil {
			return nil, err
		}
		rep.check(before == after, "%s: recovered store differs from the store that was closed", c.Name)
		res, err := r.restored[i].Query(text)
		if err != nil {
			return nil, err
		}
		want := orc.Rows[q.ID].XORator
		if hybrid {
			want = orc.Rows[q.ID].Hybrid
		}
		rep.check(len(res.Rows) == want, "%s on the recovered store returned %d rows, the documents hold %d", q.ID, len(res.Rows), want)
	}
	r.total = time.Since(start)
	return r, nil
}

func runIngest(cfg runConfig) (*report, error) {
	tr := cfg.Tracer
	rep := newReport("ingest")
	dir := filepath.Join(cfg.OutDir, fmt.Sprintf("ingest-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up is generating the documents: the stores are the workload.
	// It is cheap, so it is repeated more often than elsewhere.
	var corpora [2]corpus
	var setupS []float64
	for i := 0; i < 3*cfg.Scale.SetupRepeats; i++ {
		start := time.Now()
		var err error
		if corpora, err = generatePair(cfg.Seed, cfg.Scale.IngestPlays, cfg.Scale.IngestProceedings); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	orc := expectedRows(corpora[0].Docs, corpora[1].Docs)
	xmlBytes := corpora[0].Bytes + corpora[1].Bytes

	var vfs storage.VFS
	var counting *countingVFS
	if tr != nil {
		counting = newCountingVFS(storage.OSFS{}, tr)
		vfs = counting
	}

	var rounds []*ingestRound
	var last *ingestRound
	runtime.GC()
	deadline := time.Now().Add(cfg.timed())
	for n := 0; n < cfg.Scale.MinOps || time.Now().Before(deadline); n++ {
		last.close()
		r, err := runIngestRound(cfg, rep, corpora, orc, core.XORator, vfs, filepath.Join(dir, fmt.Sprintf("r%d", n)), n)
		if err != nil {
			return nil, err
		}
		rounds, last = append(rounds, r), r
		if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("r%d", n))); err != nil {
			return nil, err
		}
	}

	heapMB := liveHeapMB()
	var stored, data int64
	for _, st := range last.restored {
		stored += storedBytes(st)
		data += st.Stats().DataBytes
	}

	var roundMS, loadMBs []float64
	phaseMS := map[string][]float64{}
	for _, r := range rounds {
		roundMS = append(roundMS, ms(r.total))
		load := r.phases["load"] + r.phases["index"] + r.phases["stats"]
		loadMBs = append(loadMBs, ratio(float64(xmlBytes)/1e6, load.Seconds()))
		for _, p := range ingestPhases {
			phaseMS[p] = append(phaseMS[p], ms(r.phases[p]))
		}
	}
	var classes []float64
	for _, p := range ingestPhases {
		classes = append(classes, median(phaseMS[p]))
	}
	rep.OpMS, rep.ClassMS = roundMS, phaseMS
	rep.EndToEnd = map[string]float64{
		"setup_s":                   median(setupS),
		"op_p50_ms":                 median(roundMS),
		"ops_per_s":                 ratio(float64(len(rounds)), sum(roundMS)/1e3),
		"store_heap_mb":             heapMB,
		"stored_bytes_per_xml_byte": ratio(float64(stored), float64(xmlBytes)),
	}
	if tr == nil {
		last.close()
		return rep, nil
	}

	p := rep.PerLayer
	for i, ph := range ingestPhases {
		p["core.phase_ms."+ph] = classes[i]
	}
	var newStore, parse, shred, index, stats, scan, loadOnly []float64
	var commits uint64
	for _, r := range rounds {
		newStore = append(newStore, ms(r.builds[0].NewStore+r.builds[1].NewStore))
		parse = append(parse, (r.builds[0].Parse + r.builds[1].Parse).Seconds())
		shred = append(shred, (r.builds[0].Shred + r.builds[1].Shred).Seconds())
		index = append(index, ms(r.phases["index"]))
		stats = append(stats, ms(r.phases["stats"]))
		scan = append(scan, ms(r.scan))
		loadOnly = append(loadOnly, r.phases["load"].Seconds())
		commits += r.commits
	}
	xmlMB := float64(xmlBytes) / 1e6
	p["core.op_tail_ms"] = percentile(roundMS, 0.75)
	p["core.class_geomean_ms"] = geomean(classes)
	p["core.load_mb_s"] = median(loadMBs)
	p["core.newstore_ms"] = median(newStore)
	p["xmltree.parse_mb_s"] = ratio(xmlMB, median(parse))
	p["shred.load_mb_s"] = ratio(xmlMB, median(shred))
	p["index.build_ms"] = median(index)
	p["catalog.runstats_ms"] = median(stats)
	p["storage.data_bytes_per_xml_byte"] = ratio(float64(data), float64(xmlBytes))
	xp := newXADTProbe()
	xp.encoding(last.restored[0], "speech", "speech_line")
	xp.encoding(last.restored[1], "pp", "pp_slist")
	xp.fill(p)
	ip := newXIndexProbe()
	ip.addRows(last.restored[0], "speech", "speech_line")
	ip.addRows(last.restored[1], "pp", "pp_slist")
	ip.sizes(xmlBytes, last.restored[0], last.restored[1])
	ip.fill(p)
	probeBTree(p, last.restored[0], last.restored[1])
	probeStorage(p, last.restored[0], last.restored[1])
	// Counted once every store of every round is closed, so that the
	// counts per commit do not depend on how many rounds the run held.
	last.close()
	log, _ := counting.counts()
	p["wal.bytes_per_xml_byte"] = ratio(float64(log.WriteBytes), float64(xmlBytes)*float64(len(rounds)))
	p["wal.write_calls_per_commit"] = ratio(float64(log.Writes), float64(commits))
	p["wal.syncs_per_commit"] = ratio(float64(log.Syncs), float64(commits))
	p["wal.sync_time_share"] = ratio(log.SyncTime.Seconds(), sum(shred))
	p["wal.scan_ms"] = median(scan)

	// A few rounds under Hybrid, for the paper's loading ratio only.
	var hybridShred, hybridLoad []float64
	for n := 0; n < cfg.Scale.MinOps; n++ {
		hdir := filepath.Join(dir, fmt.Sprintf("h%d", n))
		r, err := runIngestRound(cfg, rep, corpora, orc, core.Hybrid, nil, hdir, len(rounds)+n)
		if err != nil {
			return nil, err
		}
		r.close()
		hybridShred = append(hybridShred, (r.builds[0].Shred + r.builds[1].Shred).Seconds())
		hybridLoad = append(hybridLoad, r.phases["load"].Seconds())
		if err := os.RemoveAll(hdir); err != nil {
			return nil, err
		}
	}
	p["shred.hybrid_load_mb_s"] = ratio(xmlMB, median(hybridShred))
	p["core.load_hx_ratio"] = ratio(median(hybridLoad), median(loadOnly))
	return rep, nil
}
