package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readSpec finds BENCHMARK.json at the root of the checkout, whether the
// benchmark was started there or in its own directory.
func readSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// exactMetrics are counts the program makes that must repeat exactly
// between two runs of the same code on the same seed, on the workloads
// where one client runs at a time. A difference is a change in
// behaviour, not noise.
var exactMetrics = map[string][]string{
	"stored_bytes_per_xml_byte":  {"paper_xorator", "paper_hybrid", "ingest"},
	"exec.rows_out_per_pass":     {"paper_xorator", "paper_hybrid"},
	"plan.join_count":            {"paper_xorator", "paper_hybrid"},
	"wal.bytes_per_xml_byte":     {"ingest"},
	"wal.write_calls_per_commit": {"ingest"},
	"wal.syncs_per_commit":       {"ingest"},
}

func isExact(metric, workload string) bool {
	for _, w := range exactMetrics[metric] {
		if w == workload {
			return true
		}
	}
	return false
}

// compareFiles prints one row per workload and metric of two result.json
// files, b against a as the base, and reports whether b is acceptable:
// no end-to-end metric worse than a by more than its bound in
// BENCHMARK.json, no exact count different at all.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	spec, err := readSpec()
	if err != nil {
		return false, err
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: runs differ in settings: seed %d/%d, scale %s/%s, seconds %g/%g\n",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %9s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "verdict")
	row := func(workload, metric string, va, vb float64, verdict string) {
		fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %9.4f  %s\n", workload, metric, va, vb, ratio(vb, va), verdict)
	}
	for _, wl := range spec.Workloads {
		wa, inA := a.Workloads[wl.Name]
		wb, inB := b.Workloads[wl.Name]
		if !inA || !inB {
			continue
		}
		if wb.Failed > 0 {
			ok = false
			fmt.Fprintf(w, "%-14s %d of %d operations failed in b\n", wl.Name, wb.Failed, wb.Attempted)
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := ratio(vb, va) - 1
			if m.Better == "higher" {
				worse = 1 - ratio(vb, va)
			}
			verdict := "ok"
			switch {
			case isExact(m.Name, wl.Name) && va != vb:
				verdict, ok = "FAIL: exact count differs", false
			case worse > m.Bound:
				verdict, ok = fmt.Sprintf("FAIL: worse by %.1f%%, bound %.0f%%", 100*worse, 100*m.Bound), false
			case -worse > m.Bound:
				verdict = fmt.Sprintf("better by %.1f%%", -100*worse)
			}
			row(wl.Name, m.Name, va, vb, verdict)
		}
		for _, m := range spec.PerLayer {
			ma, inA := wa.PerLayer[m.Name]
			mb, inB := wb.PerLayer[m.Name]
			if !inA || !inB || (ma.Value == 0 && mb.Value == 0) {
				continue
			}
			verdict := "-"
			if isExact(m.Name, wl.Name) {
				verdict = "ok"
				if ma.Value != mb.Value {
					verdict, ok = "FAIL: exact count differs", false
				}
			}
			row(wl.Name, m.Name, ma.Value, mb.Value, verdict)
		}
	}
	return ok, nil
}
