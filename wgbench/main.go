// Command wgbench is the repository's benchmark: three workloads
// (serve-read, serve-mixed, engine) that time the daemon, the builders and
// the update path from outside, check sampled answers against brute-force
// references, and print one JSON result line. With --trace 1 it repeats a
// workload with spans recorded around every layer call and reports the
// per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is recorded with every result.
type env struct {
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	N           int     `json:"n"`
	DelaunayN   int     `json:"delaunay_n"`
	Shards      int     `json:"shards"`
	Clients     int     `json:"clients"`
	MaxBatch    int     `json:"coalesce_max_batch,omitempty"`
	MaxWaitMs   float64 `json:"coalesce_max_wait_ms,omitempty"`
	QueryBatch  int     `json:"query_batch,omitempty"`
	BodiesPerOp int     `json:"bodies_per_mixed_call,omitempty"`
	WriteShare  float64 `json:"write_share,omitempty"`
}

// record is one run's full result: every metric the workload measures
// (the JSON line carries the subset BENCHMARK.json names), the environment,
// and for traced runs the self time per layer.
type record struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Env        env               `json:"env"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Checked    int64             `json:"answers_checked"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	SelfTime   []layerSelf       `json:"self_time,omitempty"`
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records a failed answer check; it counts in `failed`.
func (r *record) mismatch(err error) {
	r.Failed++
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, err.Error())
	}
}

// check counts one answer check, failing the run on a mismatch.
func (r *record) check(err error) {
	r.Attempted++
	r.Checked++
	if err != nil {
		r.mismatch(err)
	}
}

type runCtx struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	trace   bool
	rec     *record
	outDir  string
}

func (rc *runCtx) dur(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "suite":
			os.Exit(runSuite(os.Args[2:]))
		case "spec":
			os.Exit(printSpec())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
}

func parseRunFlags(name string, args []string, needWorkload bool) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload name: serve-read, serve-mixed or engine")
	var seed int64
	fs.Int64Var(&seed, "seed", 1, "input seed")
	fs.Float64Var(&f.seconds, "seconds", runSeconds, "measured seconds per run")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&f.out, "out", filepath.Join(".bench_build", "wgbench"), "directory for result, span and layer files")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	f.seed = uint64(seed)
	if needWorkload && workloadByName(f.workload) == nil {
		return f, fmt.Errorf("unknown workload %q", f.workload)
	}
	if f.seconds <= 0 || (f.trace != 0 && f.trace != 1) {
		return f, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	return f, nil
}

func runMain(args []string) int {
	f, err := parseRunFlags("wgbench", args, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench:", err)
		return 2
	}
	rec, err := runWorkload(f.workload, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench:", err)
		return 1
	}
	line, err := resultLine(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// runWorkload runs one workload, prints its full record and writes it to
// the output directory.
func runWorkload(name string, f runFlags) (*record, error) {
	w := workloadByName(name)
	rec := &record{Workload: name, Trace: f.trace == 1, Metrics: map[string]metric{}}
	rec.Env = env{Seed: f.seed, Seconds: f.seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Clients: clients}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return nil, err
	}
	rc := &runCtx{ctx: context.Background(), seed: f.seed, seconds: f.seconds,
		trace: f.trace == 1, rec: rec, outDir: f.out}
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	printRecord(rec)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(f.out, fmt.Sprintf("%s-seed%d-trace%d.json", name, f.seed, f.trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("# record: %s\n", path)
	return rec, nil
}

// resultLine is the final stdout line: the metrics BENCHMARK.json names
// (end-to-end untraced, per-layer traced).
func resultLine(rec *record) (string, error) {
	names := endToEnd
	if rec.Trace {
		names = perLayerMetrics()
	}
	out := map[string]metric{}
	for _, m := range names {
		v, ok := rec.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("%s: metric %s not measured", rec.Workload, m.Name)
		}
		out[m.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, out})
	return string(line), err
}

func printRecord(rec *record) {
	e := rec.Env
	fmt.Printf("# %s trace=%v seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s n=%d delaunay_n=%d shards=%d clients=%d",
		rec.Workload, rec.Trace, e.Seed, e.Seconds, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.N, e.DelaunayN, e.Shards, e.Clients)
	if e.MaxBatch > 0 {
		fmt.Printf(" max_batch=%d max_wait_ms=%g", e.MaxBatch, e.MaxWaitMs)
	}
	if e.QueryBatch > 0 {
		fmt.Printf(" query_batch=%d bodies_per_mixed_call=%d", e.QueryBatch, e.BodiesPerOp)
	}
	if e.WriteShare > 0 {
		fmt.Printf(" write_share=%g", e.WriteShare)
	}
	fmt.Println()
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range rec.SelfTime {
		fmt.Printf("self_time %-26s %14.3f ms over %d spans (mean %.4f ms)\n", l.Layer, l.SelfMs, l.Spans, l.MeanMs)
	}
	fmt.Printf("# attempted=%d failed=%d answers_checked=%d\n", rec.Attempted, rec.Failed, rec.Checked)
	for _, m := range rec.Mismatches {
		fmt.Println("# MISMATCH:", m)
	}
}

// runSuite runs every workload in turn and prints each one's metrics: the
// one command behind a full benchmark report.
func runSuite(args []string) int {
	f, err := parseRunFlags("wgbench suite", args, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench suite:", err)
		return 2
	}
	failed := false
	for _, w := range workloads {
		rec, err := runWorkload(w.name, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wgbench suite:", err)
			return 1
		}
		if rec.Failed > 0 {
			failed = true
		}
		runtime.GC()
	}
	if failed {
		return 1
	}
	return 0
}

// printSpec prints BENCHMARK.json from the tables in this package.
func printSpec() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{Command: []string{"bash", "wgbench/run.sh"}, Paths: []string{"wgbench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, m := range perLayerMetrics() {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
