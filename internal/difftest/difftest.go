package difftest

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/engine/plan"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// Options configures a differential run. The zero value of every field
// selects a sensible default, so Options{Seed: 1, Iters: 200} is a
// complete configuration.
type Options struct {
	// Seed is the base seed; iteration i uses Seed+i, so any failing
	// iteration replays alone as {Seed: failingSeed, Iters: 1}.
	Seed int64
	// Iters is the number of iterations (default 50).
	Iters int
	// Docs is the number of documents generated per iteration (default 4).
	Docs int
	// LoadRepeat loads the document set this many times into every store
	// (default 8); it grows tables past one morsel so the DOP axis
	// exercises real multi-worker parallelism.
	LoadRepeat int
	// DOP is the parallel degree of the DOP-N cells (default 4).
	DOP int
	// Crash adds the crash-recovery axis: each iteration also loads the
	// documents into a WAL-backed XORator store that is crashed at a
	// seeded fault point, recovered, and resumed — its heap must be
	// byte-identical to the uninterrupted store and every XORator query
	// must agree on it.
	Crash bool
	// MemBudget, when > 0, adds the memory-budget axis: every query
	// reruns under this per-query budget (spilling through an in-memory
	// VFS), serially and at DOP, and must return exactly the unlimited
	// run's rows on both mappings. Pick it small (a few KiB) so sorts,
	// join builds, and aggregates actually spill.
	MemBudget int64
	// CostModel adds the cost-model axis: every query reruns with
	// statistics invalidated and with statistics forced stale under
	// DisableAutoStats. Plans may legitimately differ across these cells
	// — that is the point — so rows compare as multisets, except for
	// cases whose ORDER BY covers every projected column (Case.Ordered),
	// which must match the reference byte for byte.
	CostModel bool
	// Ops is the number of random mutations each mutation-history
	// iteration applies (RunMutation only; default 40), and the number
	// of schedule steps per concurrent iteration (RunConcurrent).
	Ops int
	// Sessions bounds how many snapshot sessions a concurrent schedule
	// keeps open at once (RunConcurrent only; default 3).
	Sessions int
	// FailFast stops at the first diverging iteration.
	FailFast bool
	// ArtifactPath receives the failure artifact (default
	// "difftest_failure.txt").
	ArtifactPath string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (o *Options) setDefaults() {
	if o.Iters <= 0 {
		o.Iters = 50
	}
	if o.Docs <= 0 {
		o.Docs = 4
	}
	if o.LoadRepeat <= 0 {
		o.LoadRepeat = 8
	}
	if o.DOP <= 0 {
		o.DOP = 4
	}
	if o.Ops <= 0 {
		o.Ops = 40
	}
	if o.Sessions <= 0 {
		o.Sessions = 3
	}
	if o.ArtifactPath == "" {
		o.ArtifactPath = "difftest_failure.txt"
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
}

// Divergence is one cell of the matrix whose rows did not match its
// reference cell.
type Divergence struct {
	Iter   int
	Seed   int64
	Case   Case
	Axis   string
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("seed %d case %s axis %s: %s", d.Seed, d.Case.Name, d.Axis, d.Detail)
}

// Summary aggregates a run.
type Summary struct {
	Iters       int
	Cases       int
	Cells       int
	Divergences []Divergence
	// Artifact is the path of the written failure artifact, empty if the
	// run was clean.
	Artifact string
}

// Run executes the differential matrix and returns its summary. A non-nil
// error means the harness itself failed (generator bug, store build or
// query error); divergences are reported in the summary, not as errors.
func Run(opts Options) (*Summary, error) {
	opts.setDefaults()
	sum := &Summary{}
	for iter := 0; iter < opts.Iters; iter++ {
		seed := opts.Seed + int64(iter)
		st, err := buildIteration(opts, seed)
		if err != nil {
			return sum, fmt.Errorf("iteration %d (seed %d): %w", iter, seed, err)
		}
		divs, cells, err := checkAll(opts, st)
		if err != nil {
			return sum, fmt.Errorf("iteration %d (seed %d): %w", iter, seed, err)
		}
		sum.Iters++
		sum.Cases += len(st.cases)
		sum.Cells += cells
		if len(divs) > 0 {
			for i := range divs {
				divs[i].Iter, divs[i].Seed = iter, seed
			}
			sum.Divergences = append(sum.Divergences, divs...)
			fmt.Fprintf(opts.Log, "difftest: iteration %d (seed %d) diverged: %s\n", iter, seed, divs[0].Detail)
			if sum.Artifact == "" {
				texts := minimize(opts, st, divs[0])
				if err := writeArtifact(opts, st, divs[0], texts); err != nil {
					fmt.Fprintf(opts.Log, "difftest: writing artifact: %v\n", err)
				} else {
					sum.Artifact = opts.ArtifactPath
				}
			}
			if opts.FailFast {
				break
			}
		}
		if (iter+1)%25 == 0 {
			fmt.Fprintf(opts.Log, "difftest: %d/%d iterations, %d cases, %d cells, %d divergences\n",
				iter+1, opts.Iters, sum.Cases, sum.Cells, len(sum.Divergences))
		}
	}
	return sum, nil
}

// iterState is everything one iteration built, kept so a divergence can be
// minimized and rendered into the failure artifact.
type iterState struct {
	seed   int64
	dtdSrc string
	root   string
	docs   []*xmltree.Document
	texts  []string
	format *xadt.Format
	cases  []Case

	hy, xo *core.Store
	// recovered is the crash-recovered XORator twin, present only when
	// Options.Crash is set.
	recovered *core.Store
}

// buildIteration derives the iteration's DTD, documents, twin stores, and
// query suite from its seed.
func buildIteration(opts Options, seed int64) (*iterState, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &iterState{seed: seed, root: "E0"}
	st.dtdSrc = genDTD(rng)
	d, err := dtd.Parse(st.dtdSrc)
	if err != nil {
		return nil, fmt.Errorf("generated DTD does not parse: %w\n%s", err, st.dtdSrc)
	}
	st.docs, st.texts, err = genDocs(rng, d, st.root, opts.Docs)
	if err != nil {
		return nil, err
	}
	switch rng.Intn(3) {
	case 0: // let the store sample and choose
	case 1:
		f := xadt.Raw
		st.format = &f
	default:
		f := xadt.Compressed
		st.format = &f
	}
	if err := st.build(opts); err != nil {
		return nil, err
	}
	samp := collectSamples(st.docs)
	st.cases = generateCases(rng, st.hy.Schema, st.xo.Schema, st.hy.Simplified, samp, opts.LoadRepeat)
	return st, nil
}

// build creates the two stores — Hybrid and XORator — and loads the
// document set into each.
func (st *iterState) build(opts Options) error {
	mk := func(alg core.Algorithm) (*core.Store, error) {
		s, err := core.NewStore(st.dtdSrc, core.Config{Algorithm: alg, ForceFormat: st.format})
		if err != nil {
			return nil, err
		}
		for r := 0; r < opts.LoadRepeat; r++ {
			if err := s.Load(st.docs); err != nil {
				return nil, err
			}
		}
		if err := s.CreateDefaultIndexes(); err != nil {
			return nil, err
		}
		if err := s.RunStats(); err != nil {
			return nil, err
		}
		return s, nil
	}
	var err error
	if st.hy, err = mk(core.Hybrid); err != nil {
		return fmt.Errorf("hybrid store: %w", err)
	}
	if st.xo, err = mk(core.XORator); err != nil {
		return fmt.Errorf("xorator store: %w", err)
	}
	if opts.Crash {
		if err := st.buildRecovered(opts); err != nil {
			return err
		}
	}
	return nil
}

func checkAll(opts Options, st *iterState) ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	if st.recovered != nil {
		// The recovered store's heaps must be indistinguishable from the
		// store that never crashed, before any query runs.
		cells++
		if err := CompareStores(st.recovered, st.xo); err != nil {
			divs = append(divs, Divergence{Case: Case{Name: "(recovered state)"},
				Axis: "xorator:recovered-state", Detail: err.Error()})
		}
	}
	for _, c := range st.cases {
		ds, n, err := checkCase(opts, st, c)
		cells += n
		if err != nil {
			return nil, cells, fmt.Errorf("case %s: %w", c.Name, err)
		}
		divs = append(divs, ds...)
	}
	return divs, cells, nil
}

// checkCase executes one case across the matrix. Within a store, every
// cell must match the serial reference exactly (same rows, same order);
// the crash-recovered twin holds byte-identical data, so its cells are
// held to the same exact standard. The cross-mapping cell
// compares canonicalized row multisets, because the two mappings may plan
// different row orders.
func checkCase(opts Options, st *iterState, c Case) ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	record := func(axis, detail string) {
		divs = append(divs, Divergence{Case: c, Axis: axis, Detail: detail})
	}
	type cellSpec struct {
		axis string
		o    plan.Options
	}
	// Parallel cells bypass the parallelism cost gate (ForceParallel) so
	// the tiny generated tables still produce genuinely parallel plans.
	serial := plan.Options{DOP: 1}
	par := plan.Options{DOP: opts.DOP, MorselPages: 1, ForceParallel: true}
	// Index cells: the reference runs with the XADT fragment indexes on
	// (stores build them by default), so the noindex cells are the
	// index-on vs index-off differential axis — an indexed plan must
	// return byte-identical rows to the scan it replaced.
	noIdx := plan.Options{DOP: 1, DisableXADTIndexes: true}
	noIdxPar := plan.Options{DOP: opts.DOP, MorselPages: 1, ForceParallel: true, DisableXADTIndexes: true}
	// Budget cells spill through one shared in-memory VFS; spill file
	// names are globally unique, so cells never collide.
	var budget, budgetPar plan.Options
	if opts.MemBudget > 0 {
		spillFS := storage.NewMemVFS()
		budget = plan.Options{DOP: 1, MemBudgetBytes: opts.MemBudget, SpillVFS: spillFS}
		budgetPar = plan.Options{DOP: opts.DOP, MorselPages: 1, ForceParallel: true, MemBudgetBytes: opts.MemBudget, SpillVFS: spillFS}
	}
	run := func(s *core.Store, o plan.Options, sql string) (*engine.Result, error) {
		s.DB.SetPlannerOptions(o)
		defer s.DB.SetPlannerOptions(serial)
		res, err := s.Query(sql)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", sql, err)
		}
		return res, nil
	}

	var hyRef, xoRef *engine.Result
	if c.Hybrid != "" {
		ref, err := run(st.hy, serial, c.Hybrid)
		if err != nil {
			return divs, cells, fmt.Errorf("hybrid %w", err)
		}
		hyRef = ref
		hyCells := []cellSpec{
			{"hybrid:dop", par},
			{"hybrid:noindex", noIdx},
			{"hybrid:noindex+dop", noIdxPar},
		}
		if opts.MemBudget > 0 {
			hyCells = append(hyCells,
				cellSpec{"hybrid:membudget", budget},
				cellSpec{"hybrid:membudget+dop", budgetPar})
		}
		for _, cell := range hyCells {
			got, err := run(st.hy, cell.o, c.Hybrid)
			if err != nil {
				return divs, cells, fmt.Errorf("hybrid %w", err)
			}
			cells++
			if !sameRows(ref.Rows, got.Rows) {
				record(cell.axis, diffRows(ref.Rows, got.Rows))
			}
		}
	}
	if c.XORator != "" {
		ref, err := run(st.xo, serial, c.XORator)
		if err != nil {
			return divs, cells, fmt.Errorf("xorator %w", err)
		}
		xoRef = ref
		xoCells := []cellSpec{
			{"xorator:dop", par},
			{"xorator:noindex", noIdx},
			{"xorator:noindex+dop", noIdxPar},
		}
		if opts.MemBudget > 0 {
			xoCells = append(xoCells,
				cellSpec{"xorator:membudget", budget},
				cellSpec{"xorator:membudget+dop", budgetPar})
		}
		for _, cell := range xoCells {
			got, err := run(st.xo, cell.o, c.XORator)
			if err != nil {
				return divs, cells, fmt.Errorf("xorator %w", err)
			}
			cells++
			if !sameRows(ref.Rows, got.Rows) {
				record(cell.axis, diffRows(ref.Rows, got.Rows))
			}
		}
		if st.recovered != nil {
			for _, cell := range []cellSpec{
				{"xorator:recovered", serial},
				{"xorator:recovered+dop", par},
				{"xorator:recovered+noindex", noIdx},
			} {
				got, err := run(st.recovered, cell.o, c.XORator)
				if err != nil {
					return divs, cells, fmt.Errorf("recovered xorator %w", err)
				}
				cells++
				if !sameRows(ref.Rows, got.Rows) {
					record(cell.axis, diffRows(ref.Rows, got.Rows))
				}
			}
		}
	}
	if opts.CostModel {
		n, err := checkCostModelCells(opts, st, c, hyRef, xoRef, run, record)
		cells += n
		if err != nil {
			return divs, cells, err
		}
	}
	if c.Cross && hyRef != nil && xoRef != nil {
		cells++
		a, b := sortedCanon(hyRef.Rows), sortedCanon(xoRef.Rows)
		if !equalStrings(a, b) {
			record("cross-mapping", diffCanon(a, b))
		}
	}
	return divs, cells, nil
}

// checkCostModelCells runs the cost-model axis of one case: the
// estimator with no statistics at all, and with statistics forced stale
// under DisableAutoStats. These cells may legitimately plan different
// join orders, so rows compare as multisets — except Ordered cases,
// whose ORDER BY covers every projected column and therefore must match
// exactly. Statistics
// are restored with a fresh RunStats after each perturbation, which is
// deterministic over the unchanged heap.
func checkCostModelCells(opts Options, st *iterState, c Case, hyRef, xoRef *engine.Result,
	run func(*core.Store, plan.Options, string) (*engine.Result, error),
	record func(axis, detail string)) (int, error) {
	cells := 0
	compare := func(axis string, ref, got *engine.Result) {
		if c.Ordered {
			if !sameRows(ref.Rows, got.Rows) {
				record(axis, diffRows(ref.Rows, got.Rows))
			}
			return
		}
		a, b := sortedCanon(ref.Rows), sortedCanon(got.Rows)
		if !equalStrings(a, b) {
			record(axis, diffCanon(a, b))
		}
	}
	type target struct {
		label string
		s     *core.Store
		sql   string
		ref   *engine.Result
	}
	var targets []target
	if hyRef != nil {
		targets = append(targets, target{"hybrid", st.hy, c.Hybrid, hyRef})
	}
	if xoRef != nil {
		targets = append(targets, target{"xorator", st.xo, c.XORator, xoRef})
	}
	serial := plan.Options{DOP: 1}
	stale := plan.Options{DOP: 1, DisableAutoStats: true}
	for _, tg := range targets {
		// No statistics: the planner must fall back to defaults (it never
		// auto-analyzes a table without stats) and still return the same
		// rows.
		tg.s.DB.Catalog.InvalidateStats()
		got, err := run(tg.s, serial, tg.sql)
		if rerr := tg.s.RunStats(); rerr != nil {
			return cells, fmt.Errorf("%s restoring stats: %w", tg.label, rerr)
		}
		if err != nil {
			return cells, fmt.Errorf("%s nostats %w", tg.label, err)
		}
		cells++
		compare(tg.label+":nostats", tg.ref, got)

		// Stale statistics with auto-refresh disabled: the estimator must
		// distrust the drifted histograms, not crash on them.
		for _, name := range tg.s.DB.Catalog.TableNames() {
			t := tg.s.DB.Catalog.Table(name)
			t.AdvanceMods(int64(t.Rows()) + 1)
		}
		got, err = run(tg.s, stale, tg.sql)
		if rerr := tg.s.RunStats(); rerr != nil {
			return cells, fmt.Errorf("%s restoring stats: %w", tg.label, rerr)
		}
		if err != nil {
			return cells, fmt.Errorf("%s stale %w", tg.label, err)
		}
		cells++
		compare(tg.label+":stale", tg.ref, got)
	}
	return cells, nil
}

// ---- row comparison -------------------------------------------------------

func sameRows(a, b [][]types.Value) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// canonValue renders a value so that equal logical content compares equal
// regardless of its stored representation: XADT fragments render as their
// text, everything else via types.Value.String.
func canonValue(v types.Value) string {
	if v.Kind() == types.KindXADT {
		t, err := core.FragmentText(v)
		if err != nil {
			return "xadt-error:" + err.Error()
		}
		return "x:" + t
	}
	return v.String()
}

func canonRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = canonValue(v)
		}
		out[i] = strings.Join(parts, "\x1f")
	}
	return out
}

func sortedCanon(rows [][]types.Value) []string {
	out := canonRows(rows)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

func diffCanon(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("row %d: %q vs %q", i, clip(a[i]), clip(b[i]))
		}
	}
	return "rows differ"
}

func diffRows(a, b [][]types.Value) string {
	return diffCanon(canonRows(a), canonRows(b))
}

// ---- minimization and the failure artifact --------------------------------

// minimize re-runs the failing case on progressively smaller document
// subsets, keeping every removal that preserves a divergence on the same
// axis, and returns the serialized texts of the surviving documents.
func minimize(opts Options, st *iterState, d Divergence) []string {
	docs, texts := st.docs, st.texts
	for i := len(docs) - 1; i >= 0 && len(docs) > 1; i-- {
		tryDocs := make([]*xmltree.Document, 0, len(docs)-1)
		tryDocs = append(append(tryDocs, docs[:i]...), docs[i+1:]...)
		tryTexts := make([]string, 0, len(texts)-1)
		tryTexts = append(append(tryTexts, texts[:i]...), texts[i+1:]...)
		sub := &iterState{seed: st.seed, dtdSrc: st.dtdSrc, root: st.root,
			docs: tryDocs, texts: tryTexts, format: st.format}
		if err := sub.build(opts); err != nil {
			continue
		}
		divs, _, err := checkCase(opts, sub, d.Case)
		if err != nil {
			continue
		}
		for _, sd := range divs {
			if sd.Axis == d.Axis {
				docs, texts = tryDocs, tryTexts
				break
			}
		}
	}
	return texts
}

func writeArtifact(opts Options, st *iterState, d Divergence, texts []string) error {
	var sb strings.Builder
	sb.WriteString("# difftest divergence artifact\n")
	fmt.Fprintf(&sb, "# replay: go run ./cmd/repro -exp difftest -seed %d -iters 1\n", d.Seed)
	fmt.Fprintf(&sb, "seed: %d\niteration: %d\ncase: %s\naxis: %s\ndetail: %s\n",
		d.Seed, d.Iter, d.Case.Name, d.Axis, d.Detail)
	if st.format != nil {
		fmt.Fprintf(&sb, "xadt format: %v\n", *st.format)
	}
	fmt.Fprintf(&sb, "load repeat: %d, dop: %d\n", opts.LoadRepeat, opts.DOP)
	if opts.MemBudget > 0 {
		fmt.Fprintf(&sb, "mem budget: %d bytes\n", opts.MemBudget)
	}
	hsql, xsql := d.Case.Hybrid, d.Case.XORator
	if hsql == "" {
		hsql = "(not expressible)"
	}
	if xsql == "" {
		xsql = "(not expressible)"
	}
	fmt.Fprintf(&sb, "\n--- hybrid SQL ---\n%s\n\n--- xorator SQL ---\n%s\n\n--- DTD ---\n%s",
		hsql, xsql, st.dtdSrc)
	for i, t := range texts {
		fmt.Fprintf(&sb, "\n--- document %d of %d (minimized) ---\n%s\n", i+1, len(texts), t)
	}
	return os.WriteFile(opts.ArtifactPath, []byte(sb.String()), 0o644)
}
