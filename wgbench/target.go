package main

import (
	"context"
	"fmt"

	"repro"
)

// backend is the batch surface shared by *shard.Engine and a single
// Engine with its structures (single): the calls the daemon's coalescer
// runners make.
type backend interface {
	StabBatch(ctx context.Context, qs []float64) (*wegeom.IntervalBatch, *wegeom.Report, error)
	StabCountBatch(ctx context.Context, qs []float64) ([]int64, *wegeom.Report, error)
	Query3SidedBatch(ctx context.Context, qs []wegeom.PSTQuery) (*wegeom.PSTBatch, *wegeom.Report, error)
	RangeQueryBatch(ctx context.Context, qs []wegeom.RTQuery) (*wegeom.RTBatch, *wegeom.Report, error)
	KNNBatch(ctx context.Context, qs []wegeom.KPoint, k int) (*wegeom.KDBatch, *wegeom.Report, error)
	IntervalMixedBatch(ctx context.Context, ops []wegeom.IntervalOp) (*wegeom.IntervalMixed, *wegeom.Report, error)
	RangeTreeMixedBatch(ctx context.Context, ops []wegeom.RTOp) (*wegeom.RTMixed, *wegeom.Report, error)
	KDMixedBatch(ctx context.Context, ops []wegeom.KDOp) (*wegeom.KDMixed, *wegeom.Report, error)
}

// single adapts one Engine and its structures to backend.
type single struct {
	e  *wegeom.Engine
	it *wegeom.IntervalTree
	pt *wegeom.PriorityTree
	rt *wegeom.RangeTree
	kd *wegeom.KDTree
}

func (s single) StabBatch(ctx context.Context, qs []float64) (*wegeom.IntervalBatch, *wegeom.Report, error) {
	return s.e.StabBatch(ctx, s.it, qs)
}
func (s single) StabCountBatch(ctx context.Context, qs []float64) ([]int64, *wegeom.Report, error) {
	return s.e.StabCountBatch(ctx, s.it, qs)
}
func (s single) Query3SidedBatch(ctx context.Context, qs []wegeom.PSTQuery) (*wegeom.PSTBatch, *wegeom.Report, error) {
	return s.e.Query3SidedBatch(ctx, s.pt, qs)
}
func (s single) RangeQueryBatch(ctx context.Context, qs []wegeom.RTQuery) (*wegeom.RTBatch, *wegeom.Report, error) {
	return s.e.RangeQueryBatch(ctx, s.rt, qs)
}
func (s single) KNNBatch(ctx context.Context, qs []wegeom.KPoint, k int) (*wegeom.KDBatch, *wegeom.Report, error) {
	return s.e.KNNBatch(ctx, s.kd, qs, k)
}
func (s single) IntervalMixedBatch(ctx context.Context, ops []wegeom.IntervalOp) (*wegeom.IntervalMixed, *wegeom.Report, error) {
	return s.e.IntervalMixedBatch(ctx, s.it, ops)
}
func (s single) RangeTreeMixedBatch(ctx context.Context, ops []wegeom.RTOp) (*wegeom.RTMixed, *wegeom.Report, error) {
	return s.e.RangeTreeMixedBatch(ctx, s.rt, ops)
}
func (s single) KDMixedBatch(ctx context.Context, ops []wegeom.KDOp) (*wegeom.KDMixed, *wegeom.Report, error) {
	return s.e.KDMixedBatch(ctx, s.kd, ops)
}

// target is everything a workload queries: the partitioned structures
// behind a backend, and the Delaunay triangulation, which always stays on
// one Engine.
type target struct {
	b      backend
	locEng *wegeom.Engine
	tri    *wegeom.Triangulation
}

// typedBatch is a batch of one kind's reads in the Engine's query types,
// converted before timing starts.
type typedBatch struct {
	kind int
	raw  []readQuery
	fs   []float64
	q3   []wegeom.PSTQuery
	rt   []wegeom.RTQuery
	kp   []wegeom.KPoint
	pts  []wegeom.Point
}

func toTyped(kind int, qs []readQuery) *typedBatch {
	tb := &typedBatch{kind: kind, raw: qs}
	for _, q := range qs {
		switch kind {
		case kStab, kStabCount:
			tb.fs = append(tb.fs, q.a)
		case kQuery3:
			tb.q3 = append(tb.q3, wegeom.PSTQuery{XL: q.a, XR: q.b, YB: q.c})
		case kRange:
			tb.rt = append(tb.rt, wegeom.RTQuery{XL: q.a, XR: q.b, YB: q.c, YT: q.d})
		case kKNN:
			tb.kp = append(tb.kp, wegeom.KPoint{q.a, q.b})
		default:
			tb.pts = append(tb.pts, wegeom.Point{X: q.a, Y: q.b})
		}
	}
	return tb
}

// readResults is a batch's answers in the shape the checks compare.
type readResults struct {
	counts []int
	knn    [][]wegeom.KDItem
	tris   [][]int32
}

// runReads sends one typed batch to its Engine method.
func (t *target) runReads(ctx context.Context, tb *typedBatch) (*readResults, *wegeom.Report, error) {
	out := &readResults{}
	var rep *wegeom.Report
	var err error
	switch tb.kind {
	case kStab:
		var p *wegeom.IntervalBatch
		if p, rep, err = t.b.StabBatch(ctx, tb.fs); err == nil {
			for i := range tb.fs {
				out.counts = append(out.counts, len(p.Results(i)))
			}
		}
	case kStabCount:
		var cs []int64
		if cs, rep, err = t.b.StabCountBatch(ctx, tb.fs); err == nil {
			for _, c := range cs {
				out.counts = append(out.counts, int(c))
			}
		}
	case kQuery3:
		var p *wegeom.PSTBatch
		if p, rep, err = t.b.Query3SidedBatch(ctx, tb.q3); err == nil {
			for i := range tb.q3 {
				out.counts = append(out.counts, len(p.Results(i)))
			}
		}
	case kRange:
		var p *wegeom.RTBatch
		if p, rep, err = t.b.RangeQueryBatch(ctx, tb.rt); err == nil {
			for i := range tb.rt {
				out.counts = append(out.counts, len(p.Results(i)))
			}
		}
	case kKNN:
		var p *wegeom.KDBatch
		if p, rep, err = t.b.KNNBatch(ctx, tb.kp, knnK); err == nil {
			for i := range tb.kp {
				out.knn = append(out.knn, p.Results(i))
			}
		}
	default:
		var p *wegeom.TriBatch
		if p, rep, err = t.locEng.LocateBatch(ctx, t.tri, tb.pts); err == nil {
			for i := range tb.pts {
				out.tris = append(out.tris, p.Results(i))
			}
		}
	}
	if err == nil && rep == nil {
		err = fmt.Errorf("%s batch returned no report", kindNames[tb.kind])
	}
	return out, rep, err
}

// checkRead compares one read's answer with the brute-force reference.
func (d *dataset) checkRead(tri *wegeom.Triangulation, q readQuery, count int, knn []wegeom.KDItem, tris []int32) error {
	switch q.kind {
	case kKNN:
		return d.checkKNN(q.a, q.b, knn)
	case kLocate:
		return checkLocate(tri, q.a, q.b, tris)
	}
	if want := d.refQueryCount(q); count != want {
		return fmt.Errorf("%s %+v: %d results, want %d", kindNames[q.kind], q, count, want)
	}
	return nil
}

// checkReads runs a sample batch of each kind on t, outside any timed
// region, and checks every answer.
func checkReads(ctx context.Context, rec *record, d *dataset, t *target, sh shape, seed uint64, perKind int) {
	for kind := 0; kind < numKinds; kind++ {
		qs := make([]readQuery, perKind)
		for i := range qs {
			qs[i] = sh.query(kind, newRNG(seed^0xC4EC, int64(kind*perKind+i)))
		}
		res, _, err := t.runReads(ctx, toTyped(kind, qs))
		if err != nil {
			rec.Attempted++
			rec.mismatch(fmt.Errorf("check %s: %w", kindNames[kind], err))
			continue
		}
		for i, q := range qs {
			var err error
			switch kind {
			case kKNN:
				err = d.checkRead(t.tri, q, 0, res.knn[i], nil)
			case kLocate:
				err = d.checkRead(t.tri, q, 0, nil, res.tris[i])
			default:
				err = d.checkRead(t.tri, q, res.counts[i], nil, nil)
			}
			rec.check(err)
		}
	}
}

// runMixed sends one mixed batch of bodies (all on one structure) and
// returns every query op's result count plus the batch's epochs and
// update count.
func runMixed(ctx context.Context, b backend, structure int, bs []body) (counts []int, epochs, updates int, rep *wegeom.Report, err error) {
	switch structure {
	case sInterval:
		ops := intervalOps(bs)
		epochs, updates = opStats(ops)
		var res *wegeom.IntervalMixed
		if res, rep, err = b.IntervalMixedBatch(ctx, ops); err == nil {
			counts = queryCounts(res)
		}
	case sRange:
		ops := rangeOps(bs)
		epochs, updates = opStats(ops)
		var res *wegeom.RTMixed
		if res, rep, err = b.RangeTreeMixedBatch(ctx, ops); err == nil {
			counts = queryCounts(res)
		}
	default:
		ops := kdOps(bs)
		epochs, updates = opStats(ops)
		var res *wegeom.KDMixed
		if res, rep, err = b.KDMixedBatch(ctx, ops); err == nil {
			counts = queryCounts(res)
		}
	}
	if err == nil && rep == nil {
		err = fmt.Errorf("%s mixed batch returned no report", structNames[structure])
	}
	return counts, epochs, updates, rep, err
}

// checkCounts compares a run of bodies' query counts with the reference.
func (d *dataset) checkCounts(bs []body, got []int) error {
	want := d.refBodyCounts(bs)
	if len(got) != len(want) {
		return fmt.Errorf("%s mixed batch: %d query results, want %d", structNames[bs[0].structure], len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s mixed batch at c=%g: query %d counted %d, want %d",
				structNames[bs[0].structure], bs[i/3].c, i, got[i], want[i])
		}
	}
	return nil
}
