package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/coalesce"
	"repro/internal/mbatch"
	"repro/internal/qbatch"
)

// tagged carries the id of the request a query belongs to through a
// coalescer, so the runner's span can name the submit spans it served.
type tagged[Q any] struct {
	req int64
	q   Q
}

func tagAll[Q any](req int64, qs []Q) []tagged[Q] {
	out := make([]tagged[Q], len(qs))
	for i, q := range qs {
		out[i] = tagged[Q]{req, q}
	}
	return out
}

// replayer replays a daemon request stream in-process: one coalescer per
// kind, as the daemon has, each running the batch methods the daemon's
// runners call, with a span per Submit and per runner call.
type replayer struct {
	tr     *tracer
	mu     sync.Mutex
	spanOf map[int64]int64 // request id → its submit span

	stab      *coalesce.Coalescer[tagged[float64], wegeom.Interval]
	stabCount *coalesce.Coalescer[tagged[float64], int64]
	q3        *coalesce.Coalescer[tagged[wegeom.PSTQuery], wegeom.PSTPoint]
	rng       *coalesce.Coalescer[tagged[wegeom.RTQuery], wegeom.RTPoint]
	knn       *coalesce.Coalescer[tagged[wegeom.KPoint], wegeom.KDItem]
	loc       *coalesce.Coalescer[tagged[wegeom.Point], int32]
	mixIv     *coalesce.Coalescer[tagged[wegeom.IntervalOp], wegeom.Interval]
	mixRT     *coalesce.Coalescer[tagged[wegeom.RTOp], wegeom.RTPoint]
	mixKD     *coalesce.Coalescer[tagged[wegeom.KDOp], wegeom.KDItem]
}

type mixedDemux[R any] struct{ res *mbatch.Result[R] }

func (d mixedDemux[R]) Results(i int) []R {
	rows, _ := d.res.ResultsAt(i)
	return rows
}

// members returns the submit spans a batch served: the first is the
// runner span's parent, the rest are links.
func (rp *replayer) members(reqs []int64) (int64, []int64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var ids []int64
	seen := map[int64]bool{}
	for _, r := range reqs {
		if !seen[r] {
			seen[r] = true
			ids = append(ids, rp.spanOf[r])
		}
	}
	return ids[0], ids[1:]
}

// replayCoalescer makes one kind's coalescer: its runner strips the tags,
// calls run, records the call span and hands the Report to observe.
func replayCoalescer[Q, R any](rp *replayer, op string,
	run func(ctx context.Context, qs []Q) (coalesce.Demux[R], *wegeom.Report, error),
	observe func(call time.Duration, at int64, qs []Q, rep *wegeom.Report),
) *coalesce.Coalescer[tagged[Q], R] {
	opts := coalesce.Options{MaxBatch: serveMaxBatch, MaxWait: serveMaxWait}
	return coalesce.New(func(ctx context.Context, ts []tagged[Q]) (coalesce.Demux[R], error) {
		qs := make([]Q, len(ts))
		reqs := make([]int64, len(ts))
		for i, t := range ts {
			qs[i], reqs[i] = t.q, t.req
		}
		t0 := rp.tr.now()
		start := time.Now()
		out, rep, err := run(ctx, qs)
		call := time.Since(start)
		if err != nil {
			return nil, err
		}
		parent, links := rp.members(reqs)
		rp.tr.addCall(parent, links, reqs[0], op, t0, rp.tr.now(), rep)
		observe(call, t0, qs, rep)
		return out, nil
	}, opts)
}

func observeQuery[Q any](ls *layerStats, kind int) func(time.Duration, int64, []Q, *wegeom.Report) {
	return func(call time.Duration, _ int64, _ []Q, rep *wegeom.Report) { ls.observeQuery(kind, call, rep) }
}

func observeMixed[U, Q any](ls *layerStats, structure int) func(time.Duration, int64, []mbatch.Op[U, Q], *wegeom.Report) {
	return func(call time.Duration, at int64, ops []mbatch.Op[U, Q], rep *wegeom.Report) {
		epochs, updates := opStats(ops)
		ls.observeMixed(structure, epochs, updates, at, call, rep)
	}
}

// packed adapts a batch call returning a packed result to a runner.
func packed[Q, R any](f func(context.Context, []Q) (*qbatch.Packed[R], *wegeom.Report, error)) func(context.Context, []Q) (coalesce.Demux[R], *wegeom.Report, error) {
	return func(ctx context.Context, qs []Q) (coalesce.Demux[R], *wegeom.Report, error) {
		out, rep, err := f(ctx, qs)
		if err != nil {
			return nil, rep, err
		}
		return out, rep, nil
	}
}

func mixed[U, Q, R any](f func(context.Context, []mbatch.Op[U, Q]) (*mbatch.Result[R], *wegeom.Report, error)) func(context.Context, []mbatch.Op[U, Q]) (coalesce.Demux[R], *wegeom.Report, error) {
	return func(ctx context.Context, ops []mbatch.Op[U, Q]) (coalesce.Demux[R], *wegeom.Report, error) {
		out, rep, err := f(ctx, ops)
		if err != nil {
			return nil, rep, err
		}
		return mixedDemux[R]{out}, rep, nil
	}
}

func newReplayer(t *target, tr *tracer, ls *layerStats) *replayer {
	rp := &replayer{tr: tr, spanOf: map[int64]int64{}}
	b := t.b
	rp.stab = replayCoalescer(rp, "stab", packed(b.StabBatch), observeQuery[float64](ls, kStab))
	rp.stabCount = replayCoalescer(rp, "stabcount",
		func(ctx context.Context, qs []float64) (coalesce.Demux[int64], *wegeom.Report, error) {
			out, rep, err := b.StabCountBatch(ctx, qs)
			return coalesce.Slice[int64](out), rep, err
		}, observeQuery[float64](ls, kStabCount))
	rp.q3 = replayCoalescer(rp, "query3sided", packed(b.Query3SidedBatch), observeQuery[wegeom.PSTQuery](ls, kQuery3))
	rp.rng = replayCoalescer(rp, "range", packed(b.RangeQueryBatch), observeQuery[wegeom.RTQuery](ls, kRange))
	rp.knn = replayCoalescer(rp, "knn", packed(func(ctx context.Context, qs []wegeom.KPoint) (*wegeom.KDBatch, *wegeom.Report, error) {
		return b.KNNBatch(ctx, qs, knnK)
	}), observeQuery[wegeom.KPoint](ls, kKNN))
	rp.loc = replayCoalescer(rp, "locate", packed(func(ctx context.Context, qs []wegeom.Point) (*wegeom.TriBatch, *wegeom.Report, error) {
		return t.locEng.LocateBatch(ctx, t.tri, qs)
	}), observeQuery[wegeom.Point](ls, kLocate))
	rp.mixIv = replayCoalescer(rp, "mixed_interval", mixed(b.IntervalMixedBatch), observeMixed[wegeom.Interval, float64](ls, sInterval))
	rp.mixRT = replayCoalescer(rp, "mixed_rangetree", mixed(b.RangeTreeMixedBatch), observeMixed[wegeom.RTPoint, wegeom.RTQuery](ls, sRange))
	rp.mixKD = replayCoalescer(rp, "mixed_kdtree", mixed(b.KDMixedBatch), observeMixed[wegeom.KDItem, wegeom.KBox](ls, sKD))
	return rp
}

func (rp *replayer) close() {
	for _, c := range []interface{ Close() }{rp.stab, rp.stabCount, rp.q3, rp.rng, rp.knn, rp.loc, rp.mixIv, rp.mixRT, rp.mixKD} {
		c.Close()
	}
}

func submitOne[Q, R any](ctx context.Context, c *coalesce.Coalescer[tagged[Q], R], req int64, q Q) error {
	_, err := c.Submit(ctx, tagged[Q]{req, q})
	return err
}

func submitBody[Q, R any](ctx context.Context, c *coalesce.Coalescer[tagged[Q], R], req int64, ops []Q) error {
	_, err := c.SubmitAll(ctx, tagAll(req, ops))
	return err
}

// submit replays one request and returns its Submit latency.
func (rp *replayer) submit(ctx context.Context, r request) (time.Duration, error) {
	id := rp.tr.newID()
	rp.mu.Lock()
	rp.spanOf[r.i] = id
	rp.mu.Unlock()
	t0 := rp.tr.now()
	start := time.Now()
	var err error
	name := "coalesce.get"
	if r.write {
		name = "coalesce.post"
		bs := []body{r.b}
		switch r.b.structure {
		case sInterval:
			err = submitBody(ctx, rp.mixIv, r.i, intervalOps(bs))
		case sRange:
			err = submitBody(ctx, rp.mixRT, r.i, rangeOps(bs))
		default:
			err = submitBody(ctx, rp.mixKD, r.i, kdOps(bs))
		}
	} else {
		q := r.q
		switch q.kind {
		case kStab:
			err = submitOne(ctx, rp.stab, r.i, q.a)
		case kStabCount:
			err = submitOne(ctx, rp.stabCount, r.i, q.a)
		case kQuery3:
			err = submitOne(ctx, rp.q3, r.i, wegeom.PSTQuery{XL: q.a, XR: q.b, YB: q.c})
		case kRange:
			err = submitOne(ctx, rp.rng, r.i, wegeom.RTQuery{XL: q.a, XR: q.b, YB: q.c, YT: q.d})
		case kKNN:
			err = submitOne(ctx, rp.knn, r.i, wegeom.KPoint{q.a, q.b})
		default:
			err = submitOne(ctx, rp.loc, r.i, wegeom.Point{X: q.a, Y: q.b})
		}
	}
	lat := time.Since(start)
	rp.tr.add(span{ID: id, Req: r.i, Name: name, Start: t0, End: rp.tr.now()})
	if err != nil {
		return lat, fmt.Errorf("replay %s: %w", reqName(r), err)
	}
	return lat, nil
}

// run replays the stream in order from `clients` closed-loop submitters,
// stopping early at the deadline. It returns the reads' Submit latencies
// in ms, the errors, and how many requests it sent.
func (rp *replayer) run(ctx context.Context, stream []request, limit time.Duration) ([]float64, []error, int64) {
	var next atomic.Int64
	var mu sync.Mutex
	var lats []float64
	var errs []error
	var wg sync.WaitGroup
	deadline := time.Now().Add(limit)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				if k >= int64(len(stream)) {
					return
				}
				lat, err := rp.submit(ctx, stream[k])
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else if !stream[k].write {
					lats = append(lats, ms(lat))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lats, errs, min(next.Load(), int64(len(stream)))
}
