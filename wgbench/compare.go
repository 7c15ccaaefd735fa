package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// extraMetrics are metrics a record carries beyond the end-to-end and
// per-layer lists, with the direction compare needs to call a change better
// or worse.
var extraMetrics = []metricSpec{
	{Name: "query_qps", Unit: "1/s", Better: "higher"},
	{Name: "read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
	{Name: "serve.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "coalesce.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.untraced_qps", Unit: "1/s", Better: "higher"},
	{Name: "trace.traced_qps", Unit: "1/s", Better: "higher"},
}

// loadRecords reads every result record in dir, keyed by workload (with a
// "+trace" suffix for traced runs) then seed.
func loadRecords(dir string) (map[string]map[uint64]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*-trace*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[uint64]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rec := &record{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := rec.Workload
		if rec.Trace {
			key += "+trace"
		}
		if out[key] == nil {
			out[key] = map[uint64]*record{}
		}
		out[key][rec.Env.Seed] = rec
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", dir)
	}
	return out, nil
}

// runCompare prints, per (workload, metric), each side's median and
// quartiles over its runs, how many same-seed pairs B won, and B's change
// against A's median next to the metric's bound. A metric whose spread
// (quartile distance over median) exceeds its bound on either side is
// "unresolved"; B is a "gain" only if it wins at least nine tenths of the
// pairs and its median differs from A's by more than A's quartile distance.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wgbench compare <dir A> <dir B>")
		return 2
	}
	table := map[string]metricSpec{}
	for _, m := range append(append(perLayerMetrics(), extraMetrics...), endToEnd...) {
		table[m.Name] = m
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench compare:", err)
		return 1
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench compare:", err)
		return 1
	}
	var wls []string
	for w := range a {
		if b[w] != nil {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	fmt.Printf("%-17s %-30s %12s %12s %12s %12s %12s %12s %7s %9s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B wins", "change", "bound", "verdict")
	for _, w := range wls {
		names := map[string]bool{}
		for _, rec := range a[w] {
			for n := range rec.Metrics {
				names[n] = true
			}
		}
		var sorted []string
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			compareMetric(w, n, table[n], a[w], b[w])
		}
	}
	return 0
}

func compareMetric(w, name string, spec metricSpec, a, b map[uint64]*record) {
	values := func(side map[uint64]*record) []float64 {
		var vs []float64
		for _, rec := range side {
			if m, ok := rec.Metrics[name]; ok {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	av, bv := values(a), values(b)
	if len(av) == 0 || len(bv) == 0 {
		return
	}
	a1, am, a3 := quartiles(av)
	b1, bm, b3 := quartiles(bv)
	sign := 1.0 // > 0 change means B is better
	if spec.Better == "lower" {
		sign = -1
	}
	wins, pairs := 0, 0
	for seed, ra := range a {
		rb, ok := b[seed]
		if !ok {
			continue
		}
		ma, oka := ra.Metrics[name]
		mb, okb := rb.Metrics[name]
		if !oka || !okb {
			continue
		}
		pairs++
		if sign*(mb.Value-ma.Value) > 0 {
			wins++
		}
	}
	change := ratio(bm-am, math.Abs(am))
	verdict := "-"
	bound := "-"
	if spec.Bound > 0 {
		bound = fmt.Sprintf("%.3f", spec.Bound)
		spreadA, spreadB := ratio(a3-a1, math.Abs(am)), ratio(b3-b1, math.Abs(bm))
		switch {
		case spreadA > spec.Bound || spreadB > spec.Bound:
			verdict = "unresolved"
		case -sign*change > spec.Bound:
			verdict = "WORSE beyond bound"
		default:
			verdict = "within bound"
		}
	}
	if spec.Better != "" && pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(bm-am) > a3-a1 {
		verdict = "gain"
	}
	fmt.Printf("%-17s %-30s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-3d %+8.2f%% %6s  %s\n",
		w, name, am, a1, a3, bm, b1, b3, wins, pairs, 100*change, bound, verdict)
}
