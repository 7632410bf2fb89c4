// Command repro regenerates every table and figure of the paper's
// evaluation section:
//
//	-exp table1    Table 1: Shakespeare storage comparison
//	-exp table2    Table 2: SIGMOD storage comparison
//	-exp fig11     Figure 11: QS1-QS6 + loading ratios over DSx1..DSx8
//	-exp fig13     Figure 13: QG1-QG6 + loading ratios over DSx1..DSx8
//	-exp fig14     Figure 14: built-in vs UDF overhead (QT1, QT2)
//	-exp schemas   Figures 5 & 6: the mapped schemas of the Plays DTD
//	-exp monet     §2: Monet table-count comparison
//	-exp compress  §4.1: XADT storage-format decision per corpus
//	-exp difftest  differential correctness fuzzing across the full matrix
//	-exp all       everything above
//
// The difftest experiment takes -seed and -iters and writes a minimized
// failure artifact (difftest_failure.txt) on divergence; -crash adds a
// kill-and-recover store to its comparison matrix, -mutate switches it
// to randomized mutation histories (SQL DML + document ops applied to
// both mappings with periodic kill-and-recover), -concurrent switches it
// to concurrent snapshot-transaction schedules checked against a serial
// oracle, -membudget N adds the memory-budget axis (every query rerun
// under an N-byte budget, forcing spills), -costmodel adds the
// cost-model axis (every query rerun with no statistics and with stale
// statistics), and -sabotage deliberately
// corrupts the Gather reorder to prove the harness detects a broken
// configuration.
//
// Use -quick for a reduced-scale smoke run and -scales to override the
// DSxN sweep. -cpuprofile and -memprofile write pprof profiles covering
// the selected experiments. Engine features beyond the paper
// (parallelism, indexes, spilling, durability, sessions) are measured
// by the benchmark module: see benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/dtd"
	"repro/internal/engine/exec"
	"repro/internal/mapping"
	"repro/internal/xadt"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stderr)) }

// realMain runs the CLI on args and returns the process exit code;
// keeping it separate from main lets the profiling defers flush before
// exit. Errors are reported on stderr.
func realMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment to run")
		quick     = fs.Bool("quick", false, "reduced data sizes for a fast smoke run")
		scaleStr  = fs.String("scales", "1,2,4,8", "comma-separated DSxN scale factors")
		repeats   = fs.Int("repeats", 5, "runs per query (trimmed mean, paper uses 5)")
		seed      = fs.Int64("seed", 1, "base seed for -exp difftest")
		iters     = fs.Int("iters", 0, "iterations for -exp difftest (0 = 200, or 50 with -quick)")
		crash     = fs.Bool("crash", false, "add the crash-recovery axis to -exp difftest")
		mutate    = fs.Bool("mutate", false, "run -exp difftest as randomized mutation histories (DML + document ops)")
		conc      = fs.Bool("concurrent", false, "run -exp difftest as concurrent snapshot-transaction schedules")
		membudget = fs.Int64("membudget", 0, "per-query memory budget in bytes for the -exp difftest budget axis (0 = off)")
		costmodel = fs.Bool("costmodel", false, "add the cost-model axis to -exp difftest (no-stats / stale-stats cells)")
		sabotage  = fs.Bool("sabotage", false, "corrupt the Gather reorder so -exp difftest must fail")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	perror := func(err error) int {
		fmt.Fprintln(stderr, "repro:", err)
		return 1
	}

	scales, err := parseScales(*scaleStr)
	if err != nil {
		return perror(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return perror(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return perror(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				perror(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				perror(err)
			}
		}()
	}
	r := &runner{quick: *quick, scales: scales, repeats: *repeats,
		seed: *seed, iters: *iters, crash: *crash, mutate: *mutate, concurrent: *conc,
		membudget: *membudget, costmodel: *costmodel, sabotage: *sabotage}

	// Run order for -exp all.
	experiments := []struct {
		name string
		fn   func() error
	}{
		{"schemas", r.schemas},
		{"monet", r.monet},
		{"table1", r.table1},
		{"table2", r.table2},
		{"fig11", r.fig11},
		{"fig13", r.fig13},
		{"fig14", r.fig14},
		{"compress", r.compress},
		{"difftest", r.difftest},
	}
	found := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		found = true
		if err := run(e.name, e.fn); err != nil {
			return perror(err)
		}
	}
	if !found {
		return perror(fmt.Errorf("unknown experiment %q", *exp))
	}
	return 0
}

func run(name string, fn func() error) error {
	fmt.Printf("==== %s ====\n", name)
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

type runner struct {
	quick      bool
	scales     []int
	repeats    int
	seed       int64
	iters      int
	crash      bool
	mutate     bool
	concurrent bool
	membudget  int64
	costmodel  bool
	sabotage   bool

	shakespeare *bench.Dataset
	sigmod      *bench.Dataset
}

func (r *runner) shakespeareDS() bench.Dataset {
	if r.shakespeare == nil {
		n := 0
		if r.quick {
			n = 6
		}
		ds := bench.ShakespeareDataset(n)
		r.shakespeare = &ds
	}
	return *r.shakespeare
}

func (r *runner) sigmodDS() bench.Dataset {
	if r.sigmod == nil {
		n := 0
		if r.quick {
			n = 150
		}
		ds := bench.SigmodDataset(n)
		r.sigmod = &ds
	}
	return *r.sigmod
}

func (r *runner) schemas() error {
	report, err := bench.SchemasReport()
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func (r *runner) monet() error {
	d, err := dtd.Parse(corpus.ShakespeareDTD)
	if err != nil {
		return err
	}
	s := dtd.Simplify(d)
	monet, err := mapping.MonetTableCount(s)
	if err != nil {
		return err
	}
	x, err := mapping.XORator(s)
	if err != nil {
		return err
	}
	fmt.Printf("Shakespeare DTD table counts: Monet=%d XORator=%d (paper: 95 vs \"four\"; Table 1 says 7)\n",
		monet, len(x.Relations))
	return nil
}

func (r *runner) sizeTable(title string, ds bench.Dataset) error {
	_, hload, err := bench.BuildStore(ds, core.Hybrid, 1)
	if err != nil {
		return err
	}
	_, xload, err := bench.BuildStore(ds, core.XORator, 1)
	if err != nil {
		return err
	}
	fmt.Print(bench.SizeTable(title, hload, xload))
	return nil
}

func (r *runner) table1() error {
	return r.sizeTable("Table 1: Shakespeare data set", r.shakespeareDS())
}

func (r *runner) table2() error {
	return r.sizeTable("Table 2: SIGMOD Proceedings data set", r.sigmodDS())
}

func (r *runner) figure(title string, ds bench.Dataset, queries []bench.Query) error {
	points, err := bench.RunScaled(ds, queries, r.scales, r.repeats)
	if err != nil {
		return err
	}
	fmt.Print(bench.FigureTable(title, points))
	fmt.Println()
	for _, p := range points {
		fmt.Print(bench.DetailTable(p))
		fmt.Println()
	}
	return nil
}

func (r *runner) fig11() error {
	return r.figure("Figure 11: Shakespeare workload", r.shakespeareDS(), bench.ShakespeareQueries())
}

func (r *runner) fig13() error {
	return r.figure("Figure 13: SIGMOD workload", r.sigmodDS(), bench.SigmodQueries())
}

func (r *runner) fig14() error {
	hybrid, _, err := bench.BuildStore(r.shakespeareDS(), core.Hybrid, 1)
	if err != nil {
		return err
	}
	ms, err := bench.RunUDFOverhead(hybrid, r.repeats)
	if err != nil {
		return err
	}
	fmt.Print(bench.UDFTable(ms))
	return nil
}

// difftest runs the differential correctness harness: random DTDs,
// documents, and queries checked across the Hybrid/XORator × DOP1/DOPN ×
// index matrix. Any divergence is minimized into difftest_failure.txt
// and fails the experiment with a replay command.
func (r *runner) difftest() error {
	if r.sabotage {
		exec.DisableGatherReorder = true
		defer func() { exec.DisableGatherReorder = false }()
		fmt.Println("sabotage: Gather morsel reordering disabled; the matrix should diverge")
	}
	iters := r.iters
	if iters == 0 {
		iters = 200
		if r.quick {
			iters = 50
		}
	}
	if r.crash {
		fmt.Println("crash axis enabled: each iteration also crashes, recovers, and requeries a WAL-backed store")
	}
	if r.membudget > 0 {
		fmt.Printf("memory-budget axis enabled: every query also reruns under a %d-byte budget\n", r.membudget)
	}
	if r.costmodel {
		fmt.Println("cost-model axis enabled: every query also reruns with no statistics and with stale statistics")
	}
	var sum *difftest.Summary
	var err error
	replay := ""
	if r.concurrent {
		// Concurrent schedules check many predicted outcomes per
		// iteration, so the default iteration budget is smaller.
		if r.iters == 0 {
			iters = 100
			if r.quick {
				iters = 20
			}
		}
		fmt.Println("concurrent axis: seeded schedules interleave snapshot transactions against a serial oracle")
		sum, err = difftest.RunConcurrent(difftest.Options{Seed: r.seed, Iters: iters, Log: os.Stdout})
		replay = " -concurrent"
	} else if r.mutate {
		// Mutation histories check many cells per iteration, so the
		// default iteration budget is smaller.
		if r.iters == 0 {
			iters = 25
			if r.quick {
				iters = 8
			}
		}
		fmt.Println("mutation axis: each iteration applies a random DML + document-op history with periodic kill-and-recover")
		sum, err = difftest.RunMutation(difftest.Options{Seed: r.seed, Iters: iters, Log: os.Stdout})
		replay = " -mutate"
	} else {
		sum, err = difftest.Run(difftest.Options{Seed: r.seed, Iters: iters, Crash: r.crash,
			MemBudget: r.membudget, CostModel: r.costmodel, Log: os.Stdout})
	}
	if err != nil {
		return err
	}
	fmt.Printf("difftest: %d iterations, %d cases, %d matrix cells, %d divergences (base seed %d)\n",
		sum.Iters, sum.Cases, sum.Cells, len(sum.Divergences), r.seed)
	if n := len(sum.Divergences); n > 0 {
		d := sum.Divergences[0]
		return fmt.Errorf("%d divergences; first: %s\nartifact: %s\nreplay: go run ./cmd/repro -exp difftest%s -seed %d -iters 1",
			n, d, sum.Artifact, replay, d.Seed)
	}
	return nil
}

func (r *runner) compress() error {
	for _, ds := range []bench.Dataset{r.shakespeareDS(), r.sigmodDS()} {
		raw, err := corpusFormatSize(ds, xadt.Raw)
		if err != nil {
			return err
		}
		comp, err := corpusFormatSize(ds, xadt.Compressed)
		if err != nil {
			return err
		}
		choice := "raw"
		saving := 1 - float64(comp)/float64(raw)
		if saving >= 0.20 {
			choice = "compressed"
		}
		fmt.Printf("%-12s raw=%.1fMB compressed=%.1fMB saving=%.0f%% -> %s\n",
			ds.Name, float64(raw)/(1<<20), float64(comp)/(1<<20), saving*100, choice)
	}
	return nil
}

// corpusFormatSize loads the corpus under XORator with a forced XADT
// format and reports the database size.
func corpusFormatSize(ds bench.Dataset, f xadt.Format) (int64, error) {
	st, err := core.NewStore(ds.DTD, core.Config{Algorithm: core.XORator, ForceFormat: &f})
	if err != nil {
		return 0, err
	}
	if err := st.Load(ds.Docs); err != nil {
		return 0, err
	}
	return st.Stats().DataBytes, nil
}

func parseScales(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
