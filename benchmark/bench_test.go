package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads at smoke scale, untraced and traced,
// the way a run without --workload does, and holds the result to
// BENCHMARK.json: every metric the file names is reported exactly once
// per workload it declares, with the unit it declares, nothing else is
// reported, and no check failed.
func TestSmoke(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cfg := runConfig{Seed: 1, Seconds: 0.3, Scale: smokeScale, OutDir: out}
	if err := run("all", cfg, 0); err != nil {
		t.Fatal(err)
	}
	var res resultFile
	readJSON(t, filepath.Join(out, "result.json"), &res)
	var spans []span
	readJSON(t, filepath.Join(out, "trace.json"), &spans)
	if len(spans) == 0 {
		t.Error("trace.json holds no spans")
	}
	for _, s := range spans {
		if s.Parent == orphanSpan || s.Parent >= len(spans) || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
	}
	if res.Host.NProc == 0 || res.Host.GOMAXPROCS == 0 || res.Host.Go == "" || res.Host.Commit == "" {
		t.Errorf("host fingerprint incomplete: %+v", res.Host)
	}
	if len(res.Workloads) != len(spec.Workloads) {
		t.Errorf("result holds %d workloads, BENCHMARK.json declares %d", len(res.Workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		wr, ok := res.Workloads[w.Name]
		if !ok {
			t.Errorf("%s: declared in BENCHMARK.json, not reported", w.Name)
			continue
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Notes)
		}
		if len(wr.EndToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(wr.EndToEnd), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := wr.EndToEnd[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: end-to-end metric %s not reported", w.Name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0:
				t.Errorf("%s %s = %v: an end-to-end metric is never 0", w.Name, m.Name, got.Value)
			}
		}
		if len(wr.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s reports %d per-layer metrics, BENCHMARK.json names %d", w.Name, len(wr.PerLayer), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if got, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", w.Name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
			}
		}
	}
	// The bypass prediction: the relational workload does no XADT work.
	if got := res.Workloads["paper_hybrid"].PerLayer["xadt.cache_lookups_per_op"].Value; got != 0 {
		t.Errorf("paper_hybrid made %v XADT cache lookups per pass, want exactly 0", got)
	}
	if got := res.Workloads["paper_xorator"].PerLayer["xadt.cache_lookups_per_op"].Value; got == 0 {
		t.Error("paper_xorator made no XADT cache lookups")
	}
	for _, id := range append([]string{"load"}, queryIDs...) {
		if res.HXRatio[id] <= 0 {
			t.Errorf("hx_ratio %s = %v, want a positive ratio", id, res.HXRatio[id])
		}
	}

	// A result compared with itself is within every bound.
	path := filepath.Join(out, "result.json")
	if ok, err := compareFiles(io.Discard, path, path); err != nil || !ok {
		t.Errorf("comparing a result with itself: ok=%v err=%v", ok, err)
	}
}

// TestExpectedSeed1 holds the pinned counts to the documents generated
// today, and prints the current counts when they differ.
func TestExpectedSeed1(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedSeed1, &exp); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []scale{fullScale, smokeScale} {
		plays, err := generateCorpus("shakespeare", 1, sc.Plays)
		if err != nil {
			t.Fatal(err)
		}
		pps, err := generateCorpus("sigmod", 1, sc.Proceedings)
		if err != nil {
			t.Fatal(err)
		}
		got := expectedRows(plays.Docs, pps.Docs).Rows
		for _, id := range queryIDs {
			if got[id] != exp.Scales[sc.Name][id] {
				current, _ := json.Marshal(got)
				t.Errorf("%s scale: the seed 1 documents give %s", sc.Name, current)
				break
			}
		}
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
