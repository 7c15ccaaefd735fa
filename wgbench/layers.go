package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro"
)

// engineOps are the Engine calls the workloads make, by metric key.
var engineOps = append(kindNames[:],
	"mixed_"+structNames[sInterval], "mixed_"+structNames[sRange], "mixed_"+structNames[sKD])

// layerStats accumulates per-layer observations of Engine (or shard.Engine)
// calls: the caller's span around the call and the Report it returned.
type layerStats struct {
	mu        sync.Mutex
	runWall   map[string]time.Duration
	runCalls  map[string]int
	overheads []float64
	exclusive []timedValue // overhead of each mixed-batch (exclusive) call

	qReads, qWrites, qQueries, qResults int64
	modWall                             map[string]time.Duration
	modQueries                          map[string]int64

	mixWall    [numStructs]time.Duration
	mixEpochs  [numStructs]int
	mixWrites  [numStructs]int64
	mixUpdates [numStructs]int64
	mixAllocs  uint64

	shardBatches, shardFanout, routeWrites int64
}

type timedValue struct {
	at int64
	v  float64
}

func newLayerStats() *layerStats {
	return &layerStats{runWall: map[string]time.Duration{}, runCalls: map[string]int{},
		modWall: map[string]time.Duration{}, modQueries: map[string]int64{}}
}

// observe records the parts common to every call; the caller holds mu.
func (ls *layerStats) observe(op string, call time.Duration, rep *wegeom.Report) time.Duration {
	wall := rep.Wall
	ls.runWall[op] += wall
	ls.runCalls[op]++
	ls.overheads = append(ls.overheads, ms(call-wall))
	if rep.PerShard != nil {
		ls.shardBatches++
		for _, s := range rep.PerShard {
			if s != (wegeom.Snapshot{}) {
				ls.shardFanout++
			}
		}
		for _, ph := range rep.Phases {
			if ph.Name == "shard/route" {
				ls.routeWrites += ph.Cost.Writes
			}
		}
	}
	return wall
}

func (ls *layerStats) observeQuery(kind int, call time.Duration, rep *wegeom.Report) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	wall := ls.observe(kindNames[kind], call, rep)
	for _, ph := range rep.Phases {
		if ph.Name != "shard/route" {
			ls.qReads += ph.Cost.Reads
			ls.qWrites += ph.Cost.Writes
		}
	}
	ls.qQueries += int64(rep.Queries)
	ls.qResults += rep.Results
	ls.modWall[kindModule[kind]] += wall
	ls.modQueries[kindModule[kind]] += int64(rep.Queries)
}

func (ls *layerStats) observeMixed(structure, epochs, updates int, at int64, call time.Duration, rep *wegeom.Report) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	wall := ls.observe("mixed_"+structNames[structure], call, rep)
	ls.exclusive = append(ls.exclusive, timedValue{at, ms(call - wall)})
	ls.mixWall[structure] += wall
	ls.mixEpochs[structure] += epochs
	ls.mixWrites[structure] += rep.Total.Writes
	ls.mixUpdates[structure] += int64(updates)
	ls.mixAllocs += rep.Allocs
}

// put writes the engine, qbatch, mbatch, query-core, shard and alloc
// per-layer metrics.
func (ls *layerStats) put(rec *record) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, op := range engineOps {
		rec.set("engine.run_ms."+op, ratio(ms(ls.runWall[op]), float64(ls.runCalls[op])), "ms")
	}
	var sum float64
	for _, o := range ls.overheads {
		sum += o
	}
	rec.set("engine.overhead_ms", ratio(sum, float64(len(ls.overheads))), "ms")
	rec.set("engine.write_drift", drift(ls.exclusive), "ratio")
	rec.set("qbatch.reads_per_query", ratio(float64(ls.qReads), float64(ls.qQueries)), "count")
	rec.set("qbatch.writes_per_result", ratio(float64(ls.qWrites), float64(ls.qResults)), "count")
	rec.set("qbatch.results_per_query", ratio(float64(ls.qResults), float64(ls.qQueries)), "count")
	for _, mod := range queryModules {
		rec.set(mod+".query_us", ratio(float64(ls.modWall[mod])/1e3, float64(ls.modQueries[mod])), "us")
	}
	var updates int64
	for s, name := range structNames {
		rec.set("mbatch.ms_per_epoch."+name, ratio(ms(ls.mixWall[s]), float64(ls.mixEpochs[s])), "ms")
		rec.set("mbatch.writes_per_update."+name, ratio(float64(ls.mixWrites[s]), float64(ls.mixUpdates[s])), "count")
		updates += ls.mixUpdates[s]
	}
	rec.set("alloc.allocs_per_update", ratio(float64(ls.mixAllocs), float64(updates)), "count")
	rec.set("shard.fanout", ratio(float64(ls.shardFanout), float64(ls.shardBatches)), "count")
	rec.set("shard.route_writes", ratio(float64(ls.routeWrites), float64(ls.shardBatches)), "count")
}

// drift is the median exclusive-call overhead of the last quarter of the
// calls over that of the first quarter: above 1 when per-call bookkeeping
// grows with the Engine's uptime.
func drift(vs []timedValue) float64 {
	q := len(vs) / 4
	if q == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].at < vs[j].at })
	first := make([]float64, q)
	last := make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = vs[i].v
		last[i] = vs[len(vs)-q+i].v
	}
	return ratio(median(last), median(first))
}

// builtSet is one build phase's output: the six structures and the
// Report of each build, in buildModules order.
type builtSet struct {
	eng    *wegeom.Engine
	sorted []float64
	tri    *wegeom.Triangulation
	kd     *wegeom.KDTree
	it     *wegeom.IntervalTree
	pt     *wegeom.PriorityTree
	rt     *wegeom.RangeTree
	reps   []*wegeom.Report
	wall   time.Duration
}

func (b *builtSet) total() wegeom.Snapshot {
	var t wegeom.Snapshot
	for _, r := range b.reps {
		t = t.Add(r.Total)
	}
	return t
}

// buildAll runs the build phase on a fresh Engine with parallelism par
// (0 = runtime default), one traced span per builder call.
func buildAll(ctx context.Context, d *dataset, seed uint64, par int, tr *tracer) (*builtSet, error) {
	opts := []wegeom.Option{wegeom.WithSeed(seed + 1)}
	if par > 0 {
		opts = append(opts, wegeom.WithParallelism(par))
	}
	b := &builtSet{eng: wegeom.NewEngine(opts...)}
	e := b.eng
	steps := []func() (*wegeom.Report, error){
		func() (rep *wegeom.Report, err error) { b.sorted, rep, err = e.Sort(ctx, d.keys); return },
		func() (rep *wegeom.Report, err error) { b.tri, rep, err = e.Triangulate(ctx, d.tri); return },
		func() (rep *wegeom.Report, err error) { b.kd, rep, err = e.BuildKDTree(ctx, 2, d.kd); return },
		func() (rep *wegeom.Report, err error) { b.it, rep, err = e.NewIntervalTree(ctx, d.ivs); return },
		func() (rep *wegeom.Report, err error) { b.pt, rep, err = e.NewPriorityTree(ctx, d.pst); return },
		func() (rep *wegeom.Report, err error) { b.rt, rep, err = e.NewRangeTree(ctx, d.rt); return },
	}
	start := time.Now()
	for i, step := range steps {
		t0 := tr.now()
		rep, err := step()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", buildModules[i], err)
		}
		tr.addCall(0, nil, int64(i), "build_"+buildModules[i], t0, tr.now(), rep)
		b.reps = append(b.reps, rep)
	}
	b.wall = time.Since(start)
	return b, nil
}

// elems is the input size of module i's build.
func (d *dataset) elems(i int) float64 {
	if buildModules[i] == "delaunay" {
		return float64(len(d.tri))
	}
	return float64(len(d.ivs))
}

// checkSorted verifies the sort output against the input.
func checkSorted(in, out []float64) error {
	if len(in) != len(out) {
		return fmt.Errorf("sort: %d keys out, %d in", len(out), len(in))
	}
	ref := sortedCopy(in)
	for i := range ref {
		if ref[i] != out[i] {
			return fmt.Errorf("sort: key %d is %g, want %g", i, out[i], ref[i])
		}
	}
	return nil
}

// putBuilders writes the builder, parallel and alloc per-layer metrics
// from one build at P = 1 and one at P = nproc, and checks that the model
// counts of the two agree exactly.
func putBuilders(rec *record, d *dataset, p1, pn []*wegeom.Report) {
	var active float64
	for i, mod := range buildModules {
		r1, rn := p1[i], pn[i]
		n := d.elems(i)
		rec.set(mod+".build_s", rn.Wall.Seconds(), "s")
		rec.set(mod+".reads_per_elem", float64(rn.Total.Reads)/n, "count")
		rec.set(mod+".writes_per_elem", float64(rn.Total.Writes)/n, "count")
		rec.set("parallel.speedup."+mod, ratio(r1.Wall.Seconds(), rn.Wall.Seconds()), "ratio")
		rec.set("alloc.allocs_per_elem."+mod, float64(rn.Allocs)/n, "count")
		active += float64(rn.ActiveWorkers())
		var err error
		if r1.Total != rn.Total {
			err = fmt.Errorf("%s: model counts differ between P=1 %+v and P=%d %+v", mod, r1.Total, rn.Workers, rn.Total)
		}
		rec.check(err)
	}
	rec.set("parallel.active_workers", active/float64(len(buildModules)), "count")
}
