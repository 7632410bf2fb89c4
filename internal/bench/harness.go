package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// Dataset names a corpus and its DTD.
type Dataset struct {
	Name string
	DTD  string
	Docs []*xmltree.Document
}

// ShakespeareDataset builds the §4.3 corpus. plays <= 0 uses the paper
// scale (37 plays, ~7.5 MB).
func ShakespeareDataset(plays int) Dataset {
	cfg := datagen.DefaultPlayConfig()
	if plays > 0 {
		cfg.Plays = plays
	}
	return Dataset{
		Name: "shakespeare",
		DTD:  corpus.ShakespeareDTD,
		Docs: datagen.GeneratePlays(cfg),
	}
}

// SigmodDataset builds the §4.4 corpus. docs <= 0 uses the paper scale
// (3000 documents, ~12 MB).
func SigmodDataset(docs int) Dataset {
	cfg := datagen.DefaultSigmodConfig()
	if docs > 0 {
		cfg.Documents = docs
	}
	return Dataset{
		Name: "sigmod",
		DTD:  corpus.SigmodDTD,
		Docs: datagen.GenerateSigmod(cfg),
	}
}

// LoadResult describes one load of a dataset into a store.
type LoadResult struct {
	Stats    core.Stats
	LoadTime time.Duration
}

// BuildStore loads the dataset scale times into a fresh store under the
// given algorithm, then builds the workload indexes and refreshes
// statistics — the paper's methodology (Index-Wizard indexes + runstats
// before each measurement). LoadTime covers document shredding only,
// matching the paper's loading-time metric.
func BuildStore(ds Dataset, alg core.Algorithm, scale int) (*core.Store, LoadResult, error) {
	return buildStore(ds, core.Config{Algorithm: alg}, scale)
}

func buildStore(ds Dataset, cfg core.Config, scale int) (*core.Store, LoadResult, error) {
	st, err := core.NewStore(ds.DTD, cfg)
	if err != nil {
		return nil, LoadResult{}, err
	}
	start := time.Now()
	for i := 0; i < scale; i++ {
		if err := st.Load(ds.Docs); err != nil {
			return nil, LoadResult{}, err
		}
	}
	loadTime := time.Since(start)
	if err := st.CreateDefaultIndexes(); err != nil {
		return nil, LoadResult{}, err
	}
	if err := st.RunStats(); err != nil {
		return nil, LoadResult{}, err
	}
	return st, LoadResult{Stats: st.Stats(), LoadTime: loadTime}, nil
}

// Measurement is one timed query under both mappings.
type Measurement struct {
	ID          string
	HybridTime  time.Duration
	XoratorTime time.Duration
	HybridRows  int
	XoratorRows int
	// Ratio is HybridTime / XoratorTime: above 1 means XORator wins,
	// matching the y-axis of Figures 11 and 13.
	Ratio float64
}

// timeQuery runs a query repeats times and returns the trimmed-mean
// duration (drop the fastest and slowest run — the paper averages the
// middle three of five) along with the row count.
func timeQuery(st *core.Store, query string, repeats int) (time.Duration, int, error) {
	if repeats < 3 {
		repeats = 3
	}
	times := make([]time.Duration, 0, repeats)
	rows := 0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, err := st.Query(query)
		if err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(start))
		rows = len(res.Rows)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	trimmed := times[1 : len(times)-1]
	var sum time.Duration
	for _, d := range trimmed {
		sum += d
	}
	return sum / time.Duration(len(trimmed)), rows, nil
}

// RunQueries measures every query against both stores.
func RunQueries(hybrid, xorator *core.Store, queries []Query, repeats int) ([]Measurement, error) {
	out := make([]Measurement, 0, len(queries))
	for _, q := range queries {
		ht, hrows, err := timeQuery(hybrid, q.Hybrid, repeats)
		if err != nil {
			return nil, fmt.Errorf("bench: %s hybrid: %w", q.ID, err)
		}
		xt, xrows, err := timeQuery(xorator, q.XORator, repeats)
		if err != nil {
			return nil, fmt.Errorf("bench: %s xorator: %w", q.ID, err)
		}
		out = append(out, Measurement{
			ID:          q.ID,
			HybridTime:  ht,
			XoratorTime: xt,
			HybridRows:  hrows,
			XoratorRows: xrows,
			Ratio:       ratio(ht, xt),
		})
	}
	return out, nil
}

func ratio(hybrid, xorator time.Duration) float64 {
	if xorator <= 0 {
		return 0
	}
	return float64(hybrid) / float64(xorator)
}

// ScalePoint is one DSxN column of Figures 11 and 13.
type ScalePoint struct {
	Scale        int // 1, 2, 4, 8
	Measurements []Measurement
	HybridLoad   LoadResult
	XoratorLoad  LoadResult
}

// LoadRatio returns HybridLoad / XoratorLoad, the figures' rightmost
// group.
func (p ScalePoint) LoadRatio() float64 {
	return ratio(p.HybridLoad.LoadTime, p.XoratorLoad.LoadTime)
}

// RunScaled executes the full figure experiment: for each scale point it
// builds both stores, measures loading, and runs the workload.
func RunScaled(ds Dataset, queries []Query, scales []int, repeats int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, scale := range scales {
		hybrid, hload, err := BuildStore(ds, core.Hybrid, scale)
		if err != nil {
			return nil, err
		}
		xorator, xload, err := BuildStore(ds, core.XORator, scale)
		if err != nil {
			return nil, err
		}
		ms, err := RunQueries(hybrid, xorator, queries, repeats)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Scale:        scale,
			Measurements: ms,
			HybridLoad:   hload,
			XoratorLoad:  xload,
		})
	}
	return out, nil
}

// UDFMeasurement is one Figure 14 comparison.
type UDFMeasurement struct {
	ID          string
	BuiltinTime time.Duration
	UDFTime     time.Duration
	// Overhead is UDFTime/BuiltinTime - 1; the paper reports ~0.4.
	Overhead float64
	Rows     int
}

// RunUDFOverhead measures the QT pair against a Hybrid store (the
// speaker table). Builtin and UDF runs are interleaved and garbage is
// collected between runs so cache and allocator phase effects hit both
// variants equally.
func RunUDFOverhead(hybrid *core.Store, repeats int) ([]UDFMeasurement, error) {
	if repeats < 3 {
		repeats = 3
	}
	var out []UDFMeasurement
	for _, q := range UDFQueries() {
		builtinTimes := make([]time.Duration, 0, repeats)
		udfTimes := make([]time.Duration, 0, repeats)
		rows := 0
		for i := 0; i < repeats; i++ {
			runtime.GC()
			start := time.Now()
			res, err := hybrid.Query(q.Builtin)
			if err != nil {
				return nil, fmt.Errorf("bench: %s builtin: %w", q.ID, err)
			}
			builtinTimes = append(builtinTimes, time.Since(start))
			rows = len(res.Rows)

			runtime.GC()
			start = time.Now()
			if _, err := hybrid.Query(q.UDF); err != nil {
				return nil, fmt.Errorf("bench: %s udf: %w", q.ID, err)
			}
			udfTimes = append(udfTimes, time.Since(start))
		}
		bt := trimmedMean(builtinTimes)
		ut := trimmedMean(udfTimes)
		overhead := 0.0
		if bt > 0 {
			overhead = float64(ut)/float64(bt) - 1
		}
		out = append(out, UDFMeasurement{
			ID: q.ID, BuiltinTime: bt, UDFTime: ut, Overhead: overhead, Rows: rows,
		})
	}
	return out, nil
}

// trimmedMean drops the fastest and slowest run and averages the rest.
func trimmedMean(times []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	trimmed := sorted
	if len(sorted) > 2 {
		trimmed = sorted[1 : len(sorted)-1]
	}
	var sum time.Duration
	for _, d := range trimmed {
		sum += d
	}
	return sum / time.Duration(len(trimmed))
}
