package main

// runSeconds is the --seconds the benchmark is specified with.
const runSeconds = 25

// clients is the number of closed-loop callers in every load phase: one
// per CPU of the 2-core machine the benchmark was sized on.
const clients = 2

type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries it
	run  func(rc *runCtx) error
}

// workloads: README.md gives the long form of each "why", with the sizing
// findings behind it.
var workloads = []workload{
	{
		name: "serve-read",
		why: "Unsharded daemon defaults, 2 HTTP clients: GETs over the six-endpoint mix, with POST /batch segments between. " +
			"serve+coalesce dominate; reads are MaxWait-bound (batch ~1).",
		run: func(rc *runCtx) error { return runServe(rc, serveReadSpec) },
	},
	{
		name: "serve-mixed",
		why: "Daemon with 2 grid shards, 2 HTTP clients, 20% POST /batch beside 80% GETs: exclusive runs, RW lock, " +
			"mbatch epochs and the shard router on the measured path.",
		run: func(rc *runCtx) error { return runServe(rc, serveMixedSpec) },
	},
	{
		name: "engine",
		why: "In-process, no HTTP or coalescer: build six structures at n=200000, then 256-query batches, then 8-body " +
			"mixed batches whose single-item epochs cost time growing with n.",
		run: runEngine,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports untraced, with the share
// of the parent's median by which each may worsen. Each is measured on all
// three workloads (README.md says what each means per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"model_reads", "count", "lower", 0.05},
	{"model_writes", "count", "lower", 0.02},
	{"heap_mb", "MB", "lower", 0.1},
	{"qps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"update_ops_s", "1/s", "higher", 0.25},
}

// The builder modules in build order, with the Engine call that builds each.
var buildModules = []string{"wesort", "delaunay", "kdtree", "interval", "pst", "rangetree"}

// queryModules are the modules whose query cores the six read kinds reach.
var queryModules = []string{"interval", "pst", "rangetree", "kdtree", "delaunay"}

// perLayerMetrics are the metrics a traced run reports. Layers a workload
// does not reach report 0: serve and coalesce on engine, shard on the
// unsharded workloads.
func perLayerMetrics() []metricSpec {
	m := []metricSpec{
		{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},
		{Name: "coalesce.mean_batch", Unit: "count", Better: "higher"},
		{Name: "coalesce.timeout_share", Unit: "ratio", Better: "lower"},
		{Name: "coalesce.inflight_peak", Unit: "count", Better: "higher"},
		{Name: "coalesce.retries", Unit: "count", Better: "lower"},
		{Name: "shard.fanout", Unit: "count", Better: "lower"},
		{Name: "shard.route_writes", Unit: "count", Better: "lower"},
	}
	for _, op := range engineOps {
		m = append(m, metricSpec{Name: "engine.run_ms." + op, Unit: "ms", Better: "lower"})
	}
	m = append(m,
		metricSpec{Name: "engine.overhead_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "engine.write_drift", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "qbatch.reads_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "qbatch.writes_per_result", Unit: "count", Better: "lower"},
		metricSpec{Name: "qbatch.results_per_query", Unit: "count", Better: "lower"},
	)
	for _, s := range structNames {
		m = append(m, metricSpec{Name: "mbatch.ms_per_epoch." + s, Unit: "ms", Better: "lower"})
	}
	for _, s := range structNames {
		m = append(m, metricSpec{Name: "mbatch.writes_per_update." + s, Unit: "count", Better: "lower"})
	}
	for _, mod := range buildModules {
		m = append(m,
			metricSpec{Name: mod + ".build_s", Unit: "s", Better: "lower"},
			metricSpec{Name: mod + ".reads_per_elem", Unit: "count", Better: "lower"},
			metricSpec{Name: mod + ".writes_per_elem", Unit: "count", Better: "lower"},
		)
	}
	for _, mod := range queryModules {
		m = append(m, metricSpec{Name: mod + ".query_us", Unit: "us", Better: "lower"})
	}
	for _, mod := range buildModules {
		m = append(m, metricSpec{Name: "parallel.speedup." + mod, Unit: "ratio", Better: "higher"})
	}
	m = append(m, metricSpec{Name: "parallel.active_workers", Unit: "count", Better: "higher"})
	for _, mod := range buildModules {
		m = append(m, metricSpec{Name: "alloc.allocs_per_elem." + mod, Unit: "count", Better: "lower"})
	}
	m = append(m,
		metricSpec{Name: "alloc.allocs_per_update", Unit: "count", Better: "lower"},
		metricSpec{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	)
	return m
}
