package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

const (
	engineN       = 200000
	engineDN      = 50000
	queryBatch    = 256 // queries per read call
	bodiesPerCall = 8   // 5-op bodies per mixed call
	poolPerKind   = 32  // distinct pre-built query batches per kind
	setupsAfter   = 1   // spare engine set-ups after each update slice
	buildReps     = 4   // timed build phases per run; build_s is their median
	slices        = 12  // interleaved query and update slices per run
	checkPerKind  = 8   // sampled reads per kind in an answer check
)

// rounds hands call indices to closed-loop callers until the deadline,
// then lets the current round of `period` calls finish, so every kind (or
// structure × position) is called equally often.
type rounds struct {
	next, stop atomic.Int64
	deadline   time.Time
	base       int64
	period     int64
}

// newRounds starts handing out indices at base, a multiple of period.
func newRounds(base int64, d time.Duration, period int64) *rounds {
	r := &rounds{deadline: time.Now().Add(d), base: base, period: period}
	r.next.Store(base)
	r.stop.Store(math.MaxInt64)
	return r
}

func (r *rounds) take() (int64, bool) {
	j := r.next.Add(1) - 1
	if time.Now().After(r.deadline) {
		r.stop.CompareAndSwap(math.MaxInt64, r.base+(j-r.base+r.period-1)/r.period*r.period)
	}
	return j, j < r.stop.Load()
}

// loadResult is one closed-loop phase's outcome.
type loadResult struct {
	lats     []float64 // per call, ms, in completion order
	rounds   map[int64][]float64
	items    int64 // queries or update ops completed
	wall     time.Duration
	attempts int64
	errs     []error
	next     int64 // first index not handed out: the next phase's base
	period   int64
}

// runCallers runs `clients` closed-loop callers until rounds stops them;
// call returns the number of items it completed.
func runCallers(r *rounds, call func(j int64) (int64, error)) loadResult {
	var mu sync.Mutex
	res := loadResult{rounds: map[int64][]float64{}}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := r.take()
				if !ok {
					return
				}
				t0 := time.Now()
				n, err := call(j)
				lat := time.Since(t0)
				mu.Lock()
				res.attempts++
				if err != nil {
					res.errs = append(res.errs, err)
				} else {
					res.lats = append(res.lats, ms(lat))
					res.rounds[j/r.period] = append(res.rounds[j/r.period], ms(lat))
					res.items += n
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.next, res.period = r.stop.Load(), r.period
	return res
}

// roundMeans returns the mean call latency of every complete round: one
// call of each kind (or structure × position). Calls of different kinds
// cost very different amounts, and a caller often waits for the other's
// exclusive run, so single-call latencies are multi-modal and their median
// jumps between modes from run to run; a round's mean does not.
func (res *loadResult) roundMeans() []float64 {
	var out []float64
	for _, lats := range res.rounds {
		if int64(len(lats)) == res.period {
			var sum float64
			for _, l := range lats {
				sum += l
			}
			out = append(out, sum/float64(len(lats)))
		}
	}
	return out
}

func (res *loadResult) fold(rec *record) {
	rec.Attempted += res.attempts
	for _, err := range res.errs {
		rec.mismatch(err)
	}
}

// engineInputs is the engine workload's set-up: the data and the query pool.
type engineInputs struct {
	d    *dataset
	pool [numKinds][]*typedBatch
}

func genEngineInputs(seed uint64) *engineInputs {
	in := &engineInputs{d: genData(engineN, engineDN, seed)}
	for kind := 0; kind < numKinds; kind++ {
		for b := 0; b < poolPerKind; b++ {
			qs := make([]readQuery, queryBatch)
			for i := range qs {
				qs[i] = engineShape.query(kind, newRNG(seed, int64((kind*poolPerKind+b)*queryBatch+i)))
			}
			in.pool[kind] = append(in.pool[kind], toTyped(kind, qs))
		}
	}
	return in
}

// updateBodies is mixed call j's 8 bodies: structure j mod 3, positions
// inside the data's range on even calls and beyond its right end on odd.
func updateBodies(seed uint64, j int64) (int, []body) {
	structure := int(j % numStructs)
	bs := make([]body, bodiesPerCall)
	for k := range bs {
		i := j*bodiesPerCall + int64(k)
		u := newRNG(seed^0x5EED, i).float()
		c := 2 + u
		if j%2 == 0 {
			c = 0.1 + 0.8*u
		}
		bs[k] = body{structure: structure, c: c, id: int32(1_000_000 + i%1_000_000_000)}
	}
	return structure, bs
}

// queryPhase: closed-loop callers send the pool's batches, kind rotating
// per call.
func queryPhase(rc *runCtx, t *target, in *engineInputs, base int64, d time.Duration, tr *tracer, ls *layerStats) loadResult {
	return runCallers(newRounds(base, d, numKinds), func(j int64) (int64, error) {
		kind := int(j % numKinds)
		tb := in.pool[kind][(j/numKinds)%poolPerKind]
		t0 := tr.now()
		start := time.Now()
		_, rep, err := t.runReads(rc.ctx, tb)
		call := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s batch: %w", kindNames[kind], err)
		}
		tr.addCall(0, nil, j, kindNames[kind], t0, tr.now(), rep)
		if ls != nil {
			ls.observeQuery(kind, call, rep)
		}
		return int64(len(tb.raw)), nil
	})
}

// updatePhase: closed-loop callers send mixed batches; items are update
// ops (inserts plus deletes).
func updatePhase(rc *runCtx, t *target, base int64, d time.Duration, tr *tracer, ls *layerStats) loadResult {
	return runCallers(newRounds(base, d, 2*numStructs), func(j int64) (int64, error) {
		structure, bs := updateBodies(rc.seed, j)
		t0 := tr.now()
		start := time.Now()
		_, epochs, updates, rep, err := runMixed(rc.ctx, t.b, structure, bs)
		call := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s mixed batch: %w", structNames[structure], err)
		}
		tr.addCall(0, nil, j, "mixed_"+structNames[structure], t0, tr.now(), rep)
		if ls != nil {
			ls.observeMixed(structure, epochs, updates, t0, call, rep)
		}
		return int64(updates), nil
	})
}

// checkUpdates runs one mixed call per structure × position outside the
// timed phase and checks every query op against a brute-force replay.
func checkUpdates(rc *runCtx, d *dataset, b backend) {
	for j := int64(0); j < 2*numStructs; j++ {
		structure, bs := updateBodies(rc.seed^0xC4EC, 1_000_000+j)
		counts, _, _, _, err := runMixed(rc.ctx, b, structure, bs)
		if err == nil {
			err = d.checkCounts(bs, counts)
		}
		rec := rc.rec
		rec.check(err)
	}
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setUpEngine is one timed set-up: the inputs and the query pool.
func setUpEngine(seed uint64) (*engineInputs, float64) {
	runtime.GC()
	start := time.Now()
	in := genEngineInputs(seed)
	return in, time.Since(start).Seconds()
}

func runEngine(rc *runCtx) error {
	rec := rc.rec
	rec.Env.N, rec.Env.DelaunayN, rec.Env.Shards = engineN, engineDN, 1
	rec.Env.QueryBatch, rec.Env.BodiesPerOp = queryBatch, bodiesPerCall

	in, setup := setUpEngine(rc.seed)
	setups := []float64{setup}
	if rc.trace {
		return engineTraced(rc, in)
	}

	// The three phases run buildReps times in order, each time on a fresh
	// Engine: build, then query and update slices in turn, with spare
	// set-ups after each update slice, as on serve-*. Set-up and build
	// times are the median over the run, rates the median over the slices,
	// and latencies pool every round.
	var t *target
	var total wegeom.Snapshot
	var builds, qlat, qround, uround, qrates, urates []float64
	var qnext, unext int64
	for r := 0; r < buildReps; r++ {
		t = nil
		runtime.GC()
		b, err := buildAll(rc.ctx, in.d, rc.seed, 0, nil)
		if err != nil {
			return err
		}
		builds = append(builds, b.wall.Seconds())
		if r > 0 && b.total() != total {
			rec.mismatch(fmt.Errorf("build model counts did not repeat: %+v then %+v", total, b.total()))
		}
		total = b.total()
		t = &target{b: single{e: b.eng, it: b.it, pt: b.pt, rt: b.rt, kd: b.kd}, locEng: b.eng, tri: b.tri}
		if r == 0 {
			rec.check(checkSorted(in.d.keys, b.sorted))
			checkReads(rc.ctx, rec, in.d, t, engineShape, rc.seed, checkPerKind)
		}
		for s := 0; s < slices/buildReps; s++ {
			q := queryPhase(rc, t, in, qnext, rc.dur(0.5/slices), nil, nil)
			q.fold(rec)
			u := updatePhase(rc, t, unext, rc.dur(0.5/slices), nil, nil)
			u.fold(rec)
			qnext, unext = q.next, u.next
			qlat = append(qlat, q.lats...)
			qround = append(qround, q.roundMeans()...)
			uround = append(uround, u.roundMeans()...)
			qrates = append(qrates, float64(q.items)/q.wall.Seconds())
			urates = append(urates, float64(u.items)/u.wall.Seconds())
			for k := 0; k < setupsAfter; k++ {
				_, setup := setUpEngine(rc.seed)
				setups = append(setups, setup)
			}
		}
	}
	rec.set("setup_s", median(setups), "s")
	rec.set("build_s", median(builds), "s")
	rec.set("model_reads", float64(total.Reads), "count")
	rec.set("model_writes", float64(total.Writes), "count")
	checkUpdates(rc, in.d, t.b)
	checkReads(rc.ctx, rec, in.d, t, engineShape, rc.seed+1, checkPerKind)

	rec.set("qps", median(qrates), "1/s")
	rec.set("query_qps", median(qrates), "1/s")
	rec.set("read_p50_ms", median(qround), "ms")
	rec.set("read_p99_ms", windowedQuantile(qlat, 0.99), "ms")
	rec.set("read_p90_ms", windowedQuantile(qlat, 0.90), "ms")
	rec.set("read_p95_ms", windowedQuantile(qlat, 0.95), "ms")
	rec.set("read_samples", float64(len(qlat)), "count")
	rec.set("update_ops_s", median(urates), "1/s")
	rec.set("write_p50_ms", median(uround), "ms")
	rec.set("write_samples", float64(len(uround)), "count")
	// The inputs and query pool are dead here: heap_mb counts the Engine
	// and its structures only.
	rec.set("heap_mb", heapMB(), "MB")
	rec.set("error_rate", ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio")
	runtime.KeepAlive(t)
	return nil
}

// engineTraced: the build phase at P = 1 and P = nproc, then the query
// phase untraced and traced (the difference is the tracing overhead), then
// the traced update phase, with one span per Engine call.
func engineTraced(rc *runCtx, in *engineInputs) error {
	rec := rc.rec
	tr := newTracer()
	p1, err := buildAll(rc.ctx, in.d, rc.seed, 1, nil)
	if err != nil {
		return err
	}
	serial := p1.reps // only the Reports outlive the P = 1 structures
	runtime.GC()
	b, err := buildAll(rc.ctx, in.d, rc.seed, runtime.GOMAXPROCS(0), tr)
	if err != nil {
		return err
	}
	putBuilders(rec, in.d, serial, b.reps)
	rec.check(checkSorted(in.d.keys, b.sorted))
	t := &target{b: single{e: b.eng, it: b.it, pt: b.pt, rt: b.rt, kd: b.kd}, locEng: b.eng, tri: b.tri}
	checkReads(rc.ctx, rec, in.d, t, engineShape, rc.seed, checkPerKind)

	ls := newLayerStats()
	plain := queryPhase(rc, t, in, 0, rc.dur(0.25), nil, nil)
	plain.fold(rec)
	traced := queryPhase(rc, t, in, plain.next, rc.dur(0.25), tr, ls)
	traced.fold(rec)
	u := updatePhase(rc, t, 0, rc.dur(0.5), tr, ls)
	u.fold(rec)
	checkUpdates(rc, in.d, t.b)
	ls.put(rec)
	putOverhead(rec, float64(plain.items)/plain.wall.Seconds(), float64(traced.items)/traced.wall.Seconds())
	putServeLayersAbsent(rec)
	runtime.KeepAlive(b)
	return finishTrace(rc, tr)
}

func putOverhead(rec *record, untraced, traced float64) {
	rec.set("trace.untraced_qps", untraced, "1/s")
	rec.set("trace.traced_qps", traced, "1/s")
	rec.set("trace.overhead_share", ratio(untraced-traced, untraced), "ratio")
}

// putServeLayersAbsent reports the serve and coalesce layers, which the
// engine workload bypasses, as 0.
func putServeLayersAbsent(rec *record) {
	for _, m := range perLayerMetrics() {
		if strings.HasPrefix(m.Name, "serve.") || strings.HasPrefix(m.Name, "coalesce.") {
			rec.set(m.Name, 0, m.Unit)
		}
	}
}

// finishTrace writes the spans and fills in self time per layer.
func finishTrace(rc *runCtx, tr *tracer) error {
	rc.rec.SelfTime = selfTimes(tr.spans)
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", rc.outDir, rc.rec.Workload, rc.seed)
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Printf("# spans: %s (%d spans)\n", path, len(tr.spans))
	return nil
}
