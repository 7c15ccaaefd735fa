package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/shard"
)

// serveSpec is one daemon workload. In the load window request i is a
// POST /batch when writeEvery > 0 and i mod writeEvery = writeEvery-1, a GET
// otherwise; writeShare > 0 adds a POST-only window of that share of the
// run after a GET-only one.
type serveSpec struct {
	shards     int
	writeEvery int
	writeShare float64
}

var (
	serveReadSpec  = serveSpec{writeShare: 0.25}
	serveMixedSpec = serveSpec{shards: 2, writeEvery: 5}
)

// The daemon defaults (cmd/wegeom-serve): N, Delaunay N, MaxBatch, MaxWait.
const (
	serveN        = 20000
	serveDN       = 2000
	serveMaxBatch = 64
	serveMaxWait  = 2 * time.Millisecond
	serveSegments = 12 // load segments, with a build phase after each
)

type daemon struct {
	s      *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	built  wegeom.Snapshot // the model counts Boot's build charged
}

func bootDaemon(ctx context.Context, seed uint64, spec serveSpec) (*daemon, error) {
	cfg := serve.Config{N: serveN, DelaunayN: serveDN, Seed: seed, MaxBatch: serveMaxBatch,
		MaxWait: serveMaxWait, Shards: spec.shards}
	if spec.shards > 1 {
		cfg.ShardScheme = "grid"
	}
	s, err := serve.Boot(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	_, built := s.Totals()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	d := &daemon{
		s:      s,
		hs:     &http.Server{Handler: s.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served: make(chan error, 1),
		built:  built,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// setUp is one timed set-up: boot, listen and one warm-up request of every
// kind. It returns the daemon and the set-up time in seconds.
func setUp(ctx context.Context, seed uint64, spec serveSpec) (*daemon, float64, error) {
	runtime.GC()
	start := time.Now()
	d, err := bootDaemon(ctx, seed, spec)
	if err != nil {
		return nil, 0, err
	}
	if err := d.warmUp(ctx, seed); err != nil {
		d.stop(ctx)
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

// sameCounts fails when a build's model counts differ from the daemon's.
func sameCounts(what string, want, got wegeom.Snapshot) error {
	if got != want {
		return fmt.Errorf("%s model counts %+v, want the daemon's %+v", what, got, want)
	}
	return nil
}

// buildServe runs the build phase of serve.Boot on fresh engines, without
// Boot's input generation: the four tree builds (on a grid shard.Engine when
// sharded), then the triangulation of the Engine's own shuffle. It returns
// the wall time and the model counts, which must equal Boot's.
func buildServe(ctx context.Context, d *dataset, seed uint64, shards int) (time.Duration, wegeom.Snapshot, error) {
	var total wegeom.Snapshot
	e := wegeom.NewEngine(wegeom.WithSeed(seed))
	var steps []func() (*wegeom.Report, error)
	if shards > 1 {
		sh := shard.New(shard.Options{Shards: shards, Scheme: shard.Grid, Seed: seed})
		steps = []func() (*wegeom.Report, error){
			func() (*wegeom.Report, error) { return sh.BuildIntervalTree(ctx, d.ivs) },
			func() (*wegeom.Report, error) { return sh.BuildPriorityTree(ctx, d.pst) },
			func() (*wegeom.Report, error) { return sh.BuildRangeTree(ctx, d.rt) },
			func() (*wegeom.Report, error) { return sh.BuildKDTree(ctx, 2, d.kd) },
		}
	} else {
		steps = []func() (*wegeom.Report, error){
			func() (rep *wegeom.Report, err error) { _, rep, err = e.NewIntervalTree(ctx, d.ivs); return },
			func() (rep *wegeom.Report, err error) { _, rep, err = e.NewPriorityTree(ctx, d.pst); return },
			func() (rep *wegeom.Report, err error) { _, rep, err = e.NewRangeTree(ctx, d.rt); return },
			func() (rep *wegeom.Report, err error) { _, rep, err = e.BuildKDTree(ctx, 2, d.kd); return },
		}
	}
	steps = append(steps, func() (rep *wegeom.Report, err error) {
		_, rep, err = e.Triangulate(ctx, e.ShufflePoints(d.dpts))
		return
	})
	start := time.Now()
	for _, step := range steps {
		rep, err := step()
		if err != nil {
			return 0, total, fmt.Errorf("build: %w", err)
		}
		total = total.Add(rep.Total)
	}
	return time.Since(start), total, nil
}

// stop shuts the listener down, waits for Serve to return and drains the
// coalescers.
func (d *daemon) stop(ctx context.Context) {
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.s.Close()
}

// backend is what the daemon's coalescer runners call.
func (d *daemon) target() *target {
	ck := d.s.Checkpoint()
	t := &target{locEng: d.s.Engine(), tri: ck.Delaunay}
	if sh := d.s.Sharded(); sh != nil {
		t.b = sh
	} else {
		t.b = single{e: d.s.Engine(), it: ck.Interval, pt: ck.Priority, rt: ck.Range, kd: ck.KD}
	}
	return t
}

// request is one daemon request: a read, or a 5-op body.
type request struct {
	i     int64
	write bool
	q     readQuery
	b     body
}

// postBase offsets the index space of the POST-only window.
const postBase = int64(1) << 32

func (sp serveSpec) request(seed uint64, i int64, write bool) request {
	r := newRNG(seed, i)
	if !write && sp.writeEvery > 0 && i%int64(sp.writeEvery) == int64(sp.writeEvery-1) {
		write = true
	}
	if write {
		n := i
		if sp.writeEvery > 0 {
			n = i / int64(sp.writeEvery)
		}
		return request{i: i, write: true, b: body{structure: int(n % numStructs), c: 2 + r.float(),
			id: int32(500000 + i&0xFFFFFFF)}}
	}
	return request{i: i, q: serveShape.query(int(i%numKinds), r)}
}

// reply is the part of a daemon response the answer checks read.
type reply struct {
	Count     int             `json:"count"`
	Neighbors []wegeom.KDItem `json:"neighbors"`
	Triangles []int32         `json:"triangles"`
	Results   []struct {
		Count int `json:"count"`
	} `json:"results"`
}

// do sends one request. It returns the response body when keep is set,
// and the body's length either way; the timed loops discard bodies, so the
// client allocates little and adds little garbage-collection work.
func (d *daemon) do(ctx context.Context, r request, keep bool) ([]byte, int64, error) {
	var req *http.Request
	var err error
	if r.write {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/batch", strings.NewReader(r.b.json()))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+r.q.path(), nil)
	}
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("%s: HTTP %d: %s", reqName(r), resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if !keep {
		n, err := io.Copy(io.Discard, resp.Body)
		return nil, n, err
	}
	data, err := io.ReadAll(resp.Body)
	return data, int64(len(data)), err
}

func reqName(r request) string {
	if r.write {
		return "POST /batch " + structNames[r.b.structure]
	}
	return "GET " + r.q.path()
}

type httpSample struct {
	write bool
	lat   time.Duration
	end   time.Duration // completion time from the window's start
	bytes int64
}

// window is one closed-loop HTTP load window.
type window struct {
	samples  []httpSample
	reqs     []request
	wall     time.Duration
	attempts int64
	errs     []error
}

// series returns the reads' (or writes') latencies in ms and completion
// times, in completion order.
func (w *window) series(write bool) (lats []float64, ends []time.Duration) {
	for _, s := range w.samples {
		if s.write == write {
			lats = append(lats, ms(s.lat))
			ends = append(ends, s.end)
		}
	}
	return lats, ends
}

// rate is the median completions per second over time slices of about a
// second (at most ten).
func (w *window) rate(ends []time.Duration) float64 {
	return slicedRate(ends, w.wall, min(max(int(w.wall/time.Second), 2), 10))
}

func (w *window) fold(rec *record) {
	rec.Attempted += w.attempts
	for _, err := range w.errs {
		rec.mismatch(err)
	}
}

// drive runs `clients` closed-loop HTTP clients for dur; request i is
// gen(i). With a tracer, each request gets an "http.*" span.
func (d *daemon) drive(ctx context.Context, dur time.Duration, gen func(i int64) request, tr *tracer) *window {
	w := &window{}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := gen(next.Add(1) - 1)
				t0 := tr.now()
				begin := time.Now()
				_, n, err := d.do(ctx, r, false)
				lat := time.Since(begin)
				if tr != nil {
					name := "http.get"
					if r.write {
						name = "http.post"
					}
					tr.add(span{Req: r.i, Name: name, Start: t0, End: tr.now()})
				}
				mu.Lock()
				w.attempts++
				if err != nil {
					w.errs = append(w.errs, err)
				} else {
					w.samples = append(w.samples, httpSample{write: r.write, lat: lat, end: time.Since(start), bytes: n})
					w.reqs = append(w.reqs, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	return w
}

// warmUp sends one request of every kind, so connections and lazily made
// coalescers exist before timing starts.
func (d *daemon) warmUp(ctx context.Context, seed uint64) error {
	for k := 0; k < numKinds; k++ {
		if _, _, err := d.do(ctx, request{q: serveShape.query(k, newRNG(seed^0x3A3A, int64(k)))}, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for s := 0; s < numStructs; s++ {
		b := body{structure: s, c: 2.5, id: int32(400000 + s)}
		if _, _, err := d.do(ctx, request{write: true, b: b}, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// checkServe sends a seeded sample of reads and bodies one at a time and
// checks every answer against the brute-force reference.
func (d *daemon) checkServe(ctx context.Context, rec *record, data *dataset, seed uint64) {
	tri := d.s.Checkpoint().Delaunay
	for k := 0; k < numKinds; k++ {
		for i := 0; i < checkPerKind; i++ {
			q := serveShape.query(k, newRNG(seed^0xC4EC, int64(k*checkPerKind+i)))
			raw, _, err := d.do(ctx, request{q: q}, true)
			var rep reply
			if err == nil {
				err = json.Unmarshal(raw, &rep)
			}
			if err == nil {
				err = data.checkRead(tri, q, rep.Count, rep.Neighbors, rep.Triangles)
			}
			rec.check(err)
		}
	}
	for j := 0; j < 2*numStructs; j++ {
		u := newRNG(seed^0xC4EC, int64(1000+j)).float()
		c := 2 + u
		if j%2 == 0 {
			c = 0.1 + 0.8*u
		}
		b := body{structure: j % numStructs, c: c, id: int32(450000 + j)}
		raw, _, err := d.do(ctx, request{write: true, b: b}, true)
		var rep reply
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err == nil {
			if len(rep.Results) != len(bodyKinds) {
				err = fmt.Errorf("POST /batch: %d op results, want %d", len(rep.Results), len(bodyKinds))
			} else {
				err = data.checkCounts([]body{b}, []int{rep.Results[0].Count, rep.Results[2].Count, rep.Results[4].Count})
			}
		}
		rec.check(err)
	}
}

// load runs the workload's timed windows, the mixed window or the GET and
// POST windows, in `segments` equal segments, calling between (if set)
// after each one. GET and POST segments alternate, so a slow spell of the
// host falls on both windows alike instead of on the whole POST window. It
// returns the window the read metrics come from and the one the write
// metrics come from.
func (d *daemon) load(rc *runCtx, spec serveSpec, total time.Duration, segments int, tr *tracer, between func() error) (reads, writes *window, err error) {
	type part struct {
		dur  time.Duration
		base int64
		gen  func(i int64) request
		w    *window
	}
	parts := []*part{{dur: total, gen: func(i int64) request { return spec.request(rc.seed, i, false) }}}
	if spec.writeShare > 0 {
		readDur := time.Duration(float64(total) * (1 - spec.writeShare))
		parts[0].dur = readDur
		parts = append(parts, &part{dur: total - readDur, base: postBase,
			gen: func(i int64) request { return spec.request(rc.seed, i, true) }})
	}
	perPart := max(segments/len(parts), 1)
	for _, p := range parts {
		p.w = &window{}
	}
	for k := 0; k < perPart; k++ {
		for _, p := range parts {
			seg := d.drive(rc.ctx, p.dur/time.Duration(perPart), func(i int64) request { return p.gen(p.base + i) }, tr)
			p.base += seg.attempts
			p.w.merge(seg)
			if between != nil {
				if err := between(); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return parts[0].w, parts[len(parts)-1].w, nil
}

// merge appends a later segment to w.
func (w *window) merge(o *window) {
	for _, s := range o.samples {
		s.end += w.wall
		w.samples = append(w.samples, s)
	}
	w.reqs = append(w.reqs, o.reqs...)
	w.wall += o.wall
	w.attempts += o.attempts
	w.errs = append(w.errs, o.errs...)
}

func runServe(rc *runCtx, spec serveSpec) error {
	rec := rc.rec
	rec.Env.N, rec.Env.DelaunayN, rec.Env.Shards = serveN, serveDN, max(spec.shards, 1)
	rec.Env.MaxBatch, rec.Env.MaxWaitMs = serveMaxBatch, ms(serveMaxWait)
	if spec.writeEvery > 0 {
		rec.Env.WriteShare = 1 / float64(spec.writeEvery)
	} else {
		rec.Env.WriteShare = spec.writeShare
	}
	data := genData(serveN, serveDN, rc.seed)

	// The daemon the load runs against is the first set-up.
	d, setup, err := setUp(rc.ctx, rc.seed, spec)
	if err != nil {
		return err
	}
	defer d.stop(rc.ctx)
	if rc.trace {
		return serveTraced(rc, spec, d, data)
	}

	// After each load segment, in a process whose heap is warm, one more
	// set-up (a spare daemon, stopped again) and one build phase run. Taken
	// all at the start, a handful of cold boots moved by a third from run
	// to run on a 2-vCPU VM; spread over the run they do not.
	setups := []float64{setup}
	var builds []float64
	reads, writes, err := d.load(rc, spec, rc.dur(1), serveSegments, nil, func() error {
		spare, setup, err := setUp(rc.ctx, rc.seed, spec)
		if err != nil {
			return err
		}
		spare.stop(rc.ctx)
		setups = append(setups, setup)
		rec.check(sameCounts("boot", d.built, spare.built))
		runtime.GC()
		wall, total, err := buildServe(rc.ctx, data, rc.seed, spec.shards)
		if err != nil {
			return err
		}
		builds = append(builds, wall.Seconds())
		rec.check(sameCounts("build phase", d.built, total))
		runtime.GC()
		return nil
	})
	if err != nil {
		return err
	}
	rec.set("setup_s", median(setups), "s")
	rec.set("build_s", median(builds), "s")
	rec.set("model_reads", float64(d.built.Reads), "count")
	rec.set("model_writes", float64(d.built.Writes), "count")
	reads.fold(rec)
	if writes != reads {
		writes.fold(rec)
	}
	d.checkServe(rc.ctx, rec, data, rc.seed)

	rl, rends := reads.series(false)
	wl, wends := writes.series(true)
	all := rends
	if writes == reads {
		all = nil
		for _, s := range reads.samples {
			all = append(all, s.end)
		}
	}
	rec.set("qps", reads.rate(all), "1/s")
	rec.set("read_p50_ms", median(rl), "ms")
	rec.set("read_p99_ms", windowedQuantile(rl, 0.99), "ms")
	rec.set("read_p90_ms", windowedQuantile(rl, 0.90), "ms")
	rec.set("read_p95_ms", windowedQuantile(rl, 0.95), "ms")
	rec.set("read_samples", float64(len(rl)), "count")
	rec.set("write_p50_ms", median(wl), "ms")
	rec.set("write_p99_ms", windowedQuantile(wl, 0.99), "ms")
	rec.set("write_samples", float64(len(wl)), "count")
	rec.set("update_ops_s", 2*writes.rate(wends), "1/s")
	rec.set("heap_mb", heapMB(), "MB")
	rec.set("error_rate", ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio")
	runtime.KeepAlive(d)
	return nil
}

// serveTraced: the builders at the daemon's sizes at P = 1 and P = nproc;
// the load untraced, then traced with a span per HTTP request; then the
// traced request stream replayed in-process through coalescers around the
// daemon's own Engine (or shard.Engine) batch methods.
func serveTraced(rc *runCtx, spec serveSpec, d *daemon, data *dataset) error {
	rec := rc.rec
	tr := newTracer()
	p1, err := buildAll(rc.ctx, data, rc.seed, 1, nil)
	if err != nil {
		return err
	}
	pn, err := buildAll(rc.ctx, data, rc.seed, runtime.GOMAXPROCS(0), tr)
	if err != nil {
		return err
	}
	putBuilders(rec, data, p1.reps, pn.reps)

	plainReads, _, err := d.load(rc, spec, rc.dur(0.3), 1, nil, nil)
	if err != nil {
		return err
	}
	before := d.s.CoalesceStats()
	reads, writes, err := d.load(rc, spec, rc.dur(0.3), 1, tr, nil)
	if err != nil {
		return err
	}
	after := d.s.CoalesceStats()
	for _, w := range []*window{plainReads, reads} {
		w.fold(rec)
	}
	if writes != reads {
		writes.fold(rec)
	}
	putOverhead(rec, float64(len(plainReads.samples))/plainReads.wall.Seconds(),
		float64(len(reads.samples))/reads.wall.Seconds())

	samples := reads.samples
	if writes != reads {
		samples = append(samples[:len(samples):len(samples)], writes.samples...)
	}
	var bytes float64
	for _, s := range samples {
		bytes += float64(s.bytes)
	}
	rec.set("serve.resp_bytes", ratio(bytes, float64(len(samples))), "bytes")
	flushes := float64(after.SizeFlushes + after.TimeoutFlushes + after.DrainFlushes -
		before.SizeFlushes - before.TimeoutFlushes - before.DrainFlushes)
	rec.set("coalesce.mean_batch", ratio(float64(after.Requests-before.Requests), flushes), "count")
	rec.set("coalesce.timeout_share", ratio(float64(after.TimeoutFlushes-before.TimeoutFlushes), flushes), "ratio")
	rec.set("coalesce.inflight_peak", float64(after.InFlightPeak), "count")
	rec.set("coalesce.retries", float64(after.Retries-before.Retries), "count")

	stream := append([]request(nil), reads.reqs...)
	if writes != reads {
		stream = append(stream, writes.reqs...)
	}
	sort.Slice(stream, func(i, j int) bool { return stream[i].i < stream[j].i })
	ls := newLayerStats()
	rp := newReplayer(d.target(), tr, ls)
	submits, rerrs, sent := rp.run(rc.ctx, stream, rc.dur(0.4))
	rp.close()
	rec.Attempted += sent
	for _, err := range rerrs {
		rec.mismatch(err)
	}
	ls.put(rec)
	d.checkServe(rc.ctx, rec, data, rc.seed)

	if err := finishTrace(rc, tr); err != nil {
		return err
	}
	rtt, _ := reads.series(false)
	rec.set("serve.rtt_ms", median(rtt), "ms")
	rec.set("serve.self_ms", median(rtt)-median(submits), "ms")
	for _, l := range rec.SelfTime {
		if l.Layer == "coalesce" {
			rec.set("coalesce.wait_ms", l.MeanMs, "ms")
		}
	}
	return nil
}
