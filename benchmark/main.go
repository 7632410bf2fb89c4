// Command benchmark is the repository's one benchmark: four named
// workloads driven through the engine's exported functions, measured end
// to end in an untraced run and layer by layer in a traced one. See
// README.md in this directory for the workloads, the metrics and how
// they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEndDefs are the metrics a user of the store would see. Every
// workload reports every one of them; what an operation and a class are
// on each workload is in README.md.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"store_heap_mb", "MB"},
	{"stored_bytes_per_xml_byte", "B/B"},
}

// perLayerDefs are the metrics of single layers, named <package>.<name>.
// A workload that does not reach a layer reports 0 for it, which is the
// measured form of "this workload bypasses that layer".
var perLayerDefs = func() []metricDef {
	defs := []metricDef{}
	for _, id := range queryIDs {
		defs = append(defs, metricDef{"core.query_ms." + id, "ms"})
	}
	for _, p := range ingestPhases {
		defs = append(defs, metricDef{"core.phase_ms." + p, "ms"})
	}
	for _, k := range sessionOpKinds {
		defs = append(defs, metricDef{"core.op_ms." + k, "ms"})
	}
	return append(defs,
		metricDef{"core.op_tail_ms", "ms"},
		metricDef{"core.class_geomean_ms", "ms"},
		metricDef{"core.trace_overhead_share", "share"},
		metricDef{"core.span_coverage_share", "share"},
		metricDef{"core.alloc_mb_per_op", "MB"},
		metricDef{"core.load_mb_s", "MB/s"},
		metricDef{"core.newstore_ms", "ms"},
		metricDef{"core.commit_ms", "ms"},
		metricDef{"core.checkpoint_stall_ms", "ms"},
		metricDef{"core.load_hx_ratio", "ratio"},
		metricDef{"sql.parse_us", "us"},
		metricDef{"plan.plan_us", "us"},
		metricDef{"plan.join_count", "count"},
		metricDef{"exec.drain_ms", "ms"},
		metricDef{"exec.rows_out_per_pass", "count"},
		metricDef{"exec.alloc_bytes_per_row", "B"},
		metricDef{"xadt.getelm_us_per_frag", "us"},
		metricDef{"xadt.findkey_us_per_frag", "us"},
		metricDef{"xadt.getelmindex_us_per_frag", "us"},
		metricDef{"xadt.unnest_us_per_frag", "us"},
		metricDef{"xadt.alloc_bytes_per_frag", "B"},
		metricDef{"xadt.cache_hit_share", "share"},
		metricDef{"xadt.cache_lookups_per_op", "count"},
		metricDef{"xadt.encode_mb_s", "MB/s"},
		metricDef{"xindex.lookup_us", "us"},
		metricDef{"xindex.candidates_per_result_row", "ratio"},
		metricDef{"xindex.addrow_us", "us"},
		metricDef{"xindex.bytes_per_xml_byte", "B/B"},
		metricDef{"index.lookup_ns", "ns"},
		metricDef{"index.build_ms", "ms"},
		metricDef{"index.height", "count"},
		metricDef{"storage.scan_mrows_s", "Mrows/s"},
		metricDef{"storage.data_bytes_per_xml_byte", "B/B"},
		metricDef{"xmltree.parse_mb_s", "MB/s"},
		metricDef{"shred.load_mb_s", "MB/s"},
		metricDef{"shred.hybrid_load_mb_s", "MB/s"},
		metricDef{"catalog.runstats_ms", "ms"},
		metricDef{"wal.bytes_per_xml_byte", "B/B"},
		metricDef{"wal.write_calls_per_commit", "count"},
		metricDef{"wal.syncs_per_commit", "count"},
		metricDef{"wal.sync_time_share", "share"},
		metricDef{"wal.scan_ms", "ms"},
		metricDef{"mvcc.begin_rollback_us", "us"},
		metricDef{"mvcc.conflict_share", "share"},
		metricDef{"mvcc.live_versions_end", "count"},
	)
}()

var workloadNames = []string{"paper_xorator", "paper_hybrid", "ingest", "oltp_sessions"}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Scale   scale
	OutDir  string
	// Tracer is nil in the untraced run.
	Tracer *tracer
}

// timed is how long a workload measures.
func (c runConfig) timed() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// report is what one workload measured. EndToEnd is filled by every
// run; PerLayer only by a traced one.
type report struct {
	Workload string
	// OpMS is the latency of every measured operation, in run order (per
	// client on oltp_sessions, one client after the other).
	OpMS []float64
	// ClassMS is the latency of every measured operation of each class.
	ClassMS  map[string][]float64
	EndToEnd map[string]float64
	PerLayer map[string]float64

	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
}

// check counts one attempted operation or verification, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// workloadResult is a report as result.json stores it.
type workloadResult struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	// OpMS holds the untraced run's operation latencies, the sample the
	// end-to-end medians and tails were taken from.
	OpMS    []float64            `json:"op_ms,omitempty"`
	ClassMS map[string][]float64 `json:"class_ms,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// resultFile is benchmark/out/result.json. In a run of all workloads the
// end-to-end numbers come from the untraced pass and the per-layer
// numbers from the traced pass that follows it.
type resultFile struct {
	Host      hostInfo                  `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Scale     string                    `json:"scale"`
	Workloads map[string]workloadResult `json:"workloads"`
	// HXRatio is the paper's figure: Hybrid time over XORator time, per
	// query and for loading. It needs both paper workloads in one
	// process with their passes interleaved, so only a run of all
	// workloads reports it. It is informational and never gated.
	HXRatio map[string]float64 `json:"hx_ratio,omitempty"`
}

func host() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runWorkloads runs the named workloads once, traced if cfg.Tracer is
// set. The two paper workloads, when both are asked for, run in one
// call with their passes interleaved.
func runWorkloads(cfg runConfig, names []string) ([]*report, map[string]float64, error) {
	var reports []*report
	var hx map[string]float64
	var papers []string
	for _, n := range names {
		if n == "paper_xorator" || n == "paper_hybrid" {
			papers = append(papers, n)
		}
	}
	for _, n := range names {
		switch n {
		case "paper_xorator", "paper_hybrid":
			if papers == nil {
				continue
			}
			rs, ratios, err := runPaper(cfg, papers)
			if err != nil {
				return nil, nil, fmt.Errorf("%v: %w", papers, err)
			}
			reports, hx, papers = append(reports, rs...), ratios, nil
		case "ingest":
			r, err := runIngest(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("ingest: %w", err)
			}
			reports = append(reports, r)
		case "oltp_sessions":
			r, err := runSessions(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("oltp_sessions: %w", err)
			}
			reports = append(reports, r)
		default:
			return nil, nil, fmt.Errorf("unknown workload %q (want one of %v, or all)", n, workloadNames)
		}
	}
	return reports, hx, nil
}

func printReport(r *report, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, values[d.Name], d.Unit)
	}
}

func run(workload string, cfg runConfig, traceArg int) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	names := []string{workload}
	// A run of all workloads measures twice, untraced then traced; a run
	// of one measures once, as --trace says.
	traced := []bool{traceArg == 1}
	if workload == "all" {
		names, traced = workloadNames, []bool{false, true}
	}
	out := resultFile{
		Host: host(), Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale.Name,
		Workloads: map[string]workloadResult{},
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}

	for _, tr := range traced {
		cfg.Tracer = nil
		if tr {
			cfg.Tracer = newTracer()
		}
		reports, hx, err := runWorkloads(cfg, names)
		if err != nil {
			return err
		}
		cfg.Tracer.finish()
		if err := cfg.Tracer.writeFile(filepath.Join(cfg.OutDir, "trace.json")); err != nil {
			return err
		}
		for _, r := range reports {
			wr := out.Workloads[r.Workload]
			wr.Attempted += r.attempted
			wr.Failed += r.failed
			wr.Notes = append(wr.Notes, r.notes...)
			defs, values := endToEndDefs, r.EndToEnd
			if tr {
				defs, values = perLayerDefs, r.PerLayer
				// The paper workloads measure tracing overhead inside one
				// process; for the others it is the traced run against the
				// untraced one before it.
				if base := wr.EndToEnd["op_p50_ms"].Value; base > 0 && values["core.trace_overhead_share"] == 0 {
					values["core.trace_overhead_share"] = ratio(r.EndToEnd["op_p50_ms"]-base, base)
				}
				wr.PerLayer = metricSet(defs, values)
			} else {
				wr.OpMS, wr.ClassMS = r.OpMS, r.ClassMS
				wr.EndToEnd = metricSet(defs, values)
			}
			out.Workloads[r.Workload] = wr
			printReport(r, defs, values)
			for _, note := range r.notes {
				fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", r.Workload, note)
			}
			final.Attempted += r.attempted
			final.Failed += r.failed
			for name, mv := range metricSet(defs, values) {
				if workload == "all" {
					name = r.Workload + "/" + name
				}
				final.Metrics[name] = mv
			}
		}
		if tr && len(hx) > 0 {
			out.HXRatio = hx
			keys := make([]string, 0, len(hx))
			for k := range hx {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("paper core.hx_ratio.%s %.6g ratio\n", k, hx[k])
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.OutDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run: one of "+fmt.Sprint(workloadNames)+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long each workload measures")
	traceArg := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics (one workload only; all runs both ways)")
	smoke := flag.Bool("smoke", false, "use the small scale of the smoke test")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json, trace.json and WAL files")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Scale: fullScale, OutDir: *outDir}
	if *smoke {
		cfg.Scale = smokeScale
	}
	if err := run(*workload, cfg, *traceArg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
