package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro"
	"repro/internal/gen"
	"repro/internal/mbatch"
)

// dataset is one workload's generated input: the items every structure is
// built over, and the brute-force references the answer checks compare
// against. The generator calls and seed offsets are the ones serve.Boot
// uses, so a daemon booted with Config.Seed = seed holds exactly these
// items.
type dataset struct {
	keys []float64 // sort input
	ivs  []wegeom.Interval
	pst  []wegeom.PSTPoint
	rt   []wegeom.RTPoint
	kd   []wegeom.KDItem
	dpts []wegeom.Point // Delaunay input as generated
	tri  []wegeom.Point // dpts shuffled, the engine workload's Delaunay input
}

func genData(n, dn int, seed uint64) *dataset {
	d := &dataset{}
	givs := gen.UniformIntervals(n, 10.0/float64(n), seed+1)
	d.ivs = make([]wegeom.Interval, n)
	for i, iv := range givs {
		d.ivs[i] = wegeom.Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID}
	}
	xs := gen.UniformFloats(n, seed+2)
	ys := gen.UniformFloats(n, seed+3)
	d.pst = make([]wegeom.PSTPoint, n)
	d.rt = make([]wegeom.RTPoint, n)
	for i := 0; i < n; i++ {
		d.pst[i] = wegeom.PSTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
		d.rt[i] = wegeom.RTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
	}
	kpts := gen.UniformKPoints(n, 2, seed+4)
	d.kd = make([]wegeom.KDItem, n)
	for i, p := range kpts {
		d.kd[i] = wegeom.KDItem{P: p, ID: int32(i)}
	}
	d.dpts = gen.UniformPoints(dn, seed+5)
	d.tri = wegeom.ShufflePoints(d.dpts, seed+6)
	d.keys = gen.UniformFloats(n, seed+7)
	return d
}

// rng is splitmix64: request i's parameters are a pure function of (seed,
// i), so the same seed sends the same inputs whatever the interleaving of
// the clients that send them.
type rng struct{ s uint64 }

func newRNG(seed uint64, i int64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// The six read kinds: the endpoint mix of `wegeom-bench -serve`.
const (
	kStab = iota
	kStabCount
	kQuery3
	kRange
	kKNN
	kLocate
	numKinds
)

var kindNames = [numKinds]string{"stab", "stabcount", "query3sided", "range", "knn", "locate"}

// kindModule names the structure module whose query core answers a kind.
var kindModule = [numKinds]string{"interval", "interval", "pst", "rangetree", "kdtree", "delaunay"}

const knnK = 4

// readQuery is one read: kind plus up to four coordinates (stab: a;
// 3-sided: xl=a, xr=b, yb=c; range: xl=a, xr=b, yb=c, yt=d; knn and
// locate: x=a, y=b).
type readQuery struct {
	kind       int
	a, b, c, d float64
}

// shape sizes the queries. serveShape is the `wegeom-bench -serve` mix
// (/range and /query3sided return ~600-800 points at n = 20000);
// engineShape makes every kind return O(10) results at n = 200000, so
// searching, not output copying, dominates.
type shape struct {
	q3Width, q3YB, rangeW, rangeH float64
	fixedBand, diagKNN            bool
}

var (
	serveShape  = shape{q3Width: 0.1, q3YB: 0.6, rangeW: 0.1, rangeH: 0.3, fixedBand: true, diagKNN: true}
	engineShape = shape{q3Width: 0.002, q3YB: 0.975, rangeW: 0.01, rangeH: 0.005}
)

func (sh shape) query(kind int, r *rng) readQuery {
	u, v := r.float(), r.float()
	switch kind {
	case kStab, kStabCount:
		return readQuery{kind: kind, a: u}
	case kQuery3:
		return readQuery{kind: kind, a: u, b: u + sh.q3Width, c: sh.q3YB}
	case kRange:
		yb := v
		if sh.fixedBand {
			yb = 0.3
		}
		return readQuery{kind: kind, a: u, b: u + sh.rangeW, c: yb, d: yb + sh.rangeH}
	case kKNN:
		if sh.diagKNN {
			v = 1 - u
		}
		return readQuery{kind: kind, a: u, b: v}
	default:
		return readQuery{kind: kLocate, a: 0.1 + 0.8*u, b: 0.1 + 0.8*v}
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// path is the query's GET request line for the daemon.
func (q readQuery) path() string {
	a, b, c, d := ftoa(q.a), ftoa(q.b), ftoa(q.c), ftoa(q.d)
	switch q.kind {
	case kStab:
		return "/stab?q=" + a
	case kStabCount:
		return "/stab/count?q=" + a
	case kQuery3:
		return "/query3sided?xl=" + a + "&xr=" + b + "&yb=" + c
	case kRange:
		return "/range?xl=" + a + "&xr=" + b + "&yb=" + c + "&yt=" + d
	case kKNN:
		return "/knn?x=" + a + "&y=" + b + "&k=" + strconv.Itoa(knnK)
	default:
		return "/locate?x=" + a + "&y=" + b
	}
}

// The three structures a mixed-op body targets, in rotation order.
const (
	sInterval = iota
	sRange
	sKD
	numStructs
)

var structNames = [numStructs]string{"interval", "rangetree", "kdtree"}

// body is the daemon's 5-op mixed body (query, insert, query, delete,
// query) at position c with item id.
type body struct {
	structure int
	c         float64
	id        int32
}

func (b body) json() string {
	c := b.c
	switch b.structure {
	case sInterval:
		q, l, r := ftoa(c+0.05), ftoa(c), ftoa(c+0.1)
		id := strconv.Itoa(int(b.id))
		stab := `{"op":"stab","q":` + q + `}`
		upd := `"left":` + l + `,"right":` + r + `,"id":` + id + `}`
		return `{"structure":"interval","ops":[` + stab + `,{"op":"insert",` + upd + `,` + stab +
			`,{"op":"delete",` + upd + `,` + stab + `]}`
	case sRange:
		lo, hi, p := ftoa(c-0.1), ftoa(c+0.1), ftoa(c)
		id := strconv.Itoa(int(b.id))
		qry := `{"op":"query","xl":` + lo + `,"xr":` + hi + `,"yb":` + lo + `,"yt":` + hi + `}`
		upd := `"x":` + p + `,"y":` + p + `,"id":` + id + `}`
		return `{"structure":"range","ops":[` + qry + `,{"op":"insert",` + upd + `,` + qry +
			`,{"op":"delete",` + upd + `,` + qry + `]}`
	default:
		lo, hi, p := ftoa(c-0.1), ftoa(c+0.1), ftoa(c)
		id := strconv.Itoa(int(b.id))
		qry := `{"op":"range","min":[` + lo + `,` + lo + `],"max":[` + hi + `,` + hi + `]}`
		upd := `"p":[` + p + `,` + p + `],"id":` + id + `}`
		return `{"structure":"kd","ops":[` + qry + `,{"op":"insert",` + upd + `,` + qry +
			`,{"op":"delete",` + upd + `,` + qry + `]}`
	}
}

// bodyKinds is the op-kind sequence of one body.
var bodyKinds = [5]wegeom.MixedKind{wegeom.OpQuery, wegeom.OpInsert, wegeom.OpQuery, wegeom.OpDelete, wegeom.OpQuery}

func intervalOps(bs []body) []wegeom.IntervalOp {
	var ops []wegeom.IntervalOp
	for _, b := range bs {
		iv := wegeom.Interval{Left: b.c, Right: b.c + 0.1, ID: b.id}
		for _, k := range bodyKinds {
			ops = append(ops, wegeom.IntervalOp{Kind: k, Upd: iv, Qry: b.c + 0.05})
		}
	}
	return ops
}

func rangeOps(bs []body) []wegeom.RTOp {
	var ops []wegeom.RTOp
	for _, b := range bs {
		p := wegeom.RTPoint{X: b.c, Y: b.c, ID: b.id}
		q := wegeom.RTQuery{XL: b.c - 0.1, XR: b.c + 0.1, YB: b.c - 0.1, YT: b.c + 0.1}
		for _, k := range bodyKinds {
			ops = append(ops, wegeom.RTOp{Kind: k, Upd: p, Qry: q})
		}
	}
	return ops
}

func kdOps(bs []body) []wegeom.KDOp {
	var ops []wegeom.KDOp
	for _, b := range bs {
		it := wegeom.KDItem{P: wegeom.KPoint{b.c, b.c}, ID: b.id}
		q := wegeom.KBox{Min: wegeom.KPoint{b.c - 0.1, b.c - 0.1}, Max: wegeom.KPoint{b.c + 0.1, b.c + 0.1}}
		for _, k := range bodyKinds {
			ops = append(ops, wegeom.KDOp{Kind: k, Upd: it, Qry: q})
		}
	}
	return ops
}

// opStats counts a mixed batch's serialization epochs as sent (the
// maximal runs of one op kind in arrival order) and its update ops.
func opStats[U, Q any](ops []mbatch.Op[U, Q]) (epochs, updates int) {
	prev := wegeom.MixedKind(255)
	for _, op := range ops {
		if op.Kind != prev {
			epochs++
		}
		prev = op.Kind
		if op.Kind != wegeom.OpQuery {
			updates++
		}
	}
	return epochs, updates
}

// queryCounts returns the result count of every query op, in op order.
func queryCounts[R any](res *mbatch.Result[R]) []int {
	var out []int
	for i := range res.QuerySlot {
		if rows, ok := res.ResultsAt(i); ok {
			out = append(out, len(rows))
		}
	}
	return out
}

// ---- brute-force references ----

func (d *dataset) stabCount(q float64) int {
	n := 0
	for _, iv := range d.ivs {
		if iv.Left <= q && q <= iv.Right {
			n++
		}
	}
	return n
}

func (d *dataset) q3Count(xl, xr, yb float64) int {
	n := 0
	for _, p := range d.pst {
		if xl <= p.X && p.X <= xr && p.Y >= yb {
			n++
		}
	}
	return n
}

func (d *dataset) rangeCount(xl, xr, yb, yt float64) int {
	n := 0
	for _, p := range d.rt {
		if xl <= p.X && p.X <= xr && yb <= p.Y && p.Y <= yt {
			n++
		}
	}
	return n
}

func (d *dataset) kdRangeCount(lo, hi float64) int {
	n := 0
	for _, it := range d.kd {
		if lo <= it.P[0] && it.P[0] <= hi && lo <= it.P[1] && it.P[1] <= hi {
			n++
		}
	}
	return n
}

func dist2(p wegeom.KPoint, x, y float64) float64 {
	dx, dy := p[0]-x, p[1]-y
	return dx*dx + dy*dy
}

// knnDists returns the k smallest squared distances from (x, y), ascending.
func (d *dataset) knnDists(x, y float64, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, it := range d.kd {
		d2 := dist2(it.P, x, y)
		if len(best) == k && d2 >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d2)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d2
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkKNN compares returned neighbours' distances with the reference.
func (d *dataset) checkKNN(x, y float64, got []wegeom.KDItem) error {
	want := d.knnDists(x, y, knnK)
	if len(got) != len(want) {
		return fmt.Errorf("knn (%g,%g): %d neighbours, want %d", x, y, len(got), len(want))
	}
	ds := make([]float64, len(got))
	for i, it := range got {
		if len(it.P) != 2 {
			return fmt.Errorf("knn (%g,%g): neighbour %d has %d coordinates", x, y, i, len(it.P))
		}
		ds[i] = dist2(it.P, x, y)
	}
	sort.Float64s(ds)
	for i := range ds {
		if math.Abs(ds[i]-want[i]) > 1e-12 {
			return fmt.Errorf("knn (%g,%g): distance² %d = %g, want %g", x, y, i, ds[i], want[i])
		}
	}
	return nil
}

// checkLocate verifies a point-location answer: every returned triangle is
// a real one whose circumcircle contains q, and one of them contains q.
func checkLocate(t *wegeom.Triangulation, x, y float64, ids []int32) error {
	if len(ids) == 0 {
		return fmt.Errorf("locate (%g,%g): no triangles", x, y)
	}
	const eps = 1e-12
	contains := false
	for _, id := range ids {
		if id < 0 || int(id) >= len(t.Tris) {
			return fmt.Errorf("locate (%g,%g): triangle id %d out of range", x, y, id)
		}
		v := t.Tris[id].V
		if int(v[0]) >= t.N || int(v[1]) >= t.N || int(v[2]) >= t.N {
			return fmt.Errorf("locate (%g,%g): triangle %d touches a bounding vertex", x, y, id)
		}
		a, b, c := t.Pts[v[0]], t.Pts[v[1]], t.Pts[v[2]]
		if incircle(a, b, c, x, y) < -eps {
			return fmt.Errorf("locate (%g,%g): triangle %d does not conflict", x, y, id)
		}
		if orient(a, b, x, y) >= -eps && orient(b, c, x, y) >= -eps && orient(c, a, x, y) >= -eps {
			contains = true
		}
	}
	if !contains {
		return fmt.Errorf("locate (%g,%g): no returned triangle contains the point", x, y)
	}
	return nil
}

func orient(a, b wegeom.Point, x, y float64) float64 {
	return (b.X-a.X)*(y-a.Y) - (b.Y-a.Y)*(x-a.X)
}

// incircle is positive when (x, y) lies inside the circumcircle of the
// counter-clockwise triangle abc.
func incircle(a, b, c wegeom.Point, x, y float64) float64 {
	adx, ady := a.X-x, a.Y-y
	bdx, bdy := b.X-x, b.Y-y
	cdx, cdy := c.X-x, c.Y-y
	ad, bd, cd := adx*adx+ady*ady, bdx*bdx+bdy*bdy, cdx*cdx+cdy*cdy
	return adx*(bdy*cd-bd*cdy) - ady*(bdx*cd-bd*cdx) + ad*(bdx*cdy-bdy*cdx)
}

// refQueryCount is the reference result count of a read (knn and locate
// are checked by geometry instead, so they return -1).
func (d *dataset) refQueryCount(q readQuery) int {
	switch q.kind {
	case kStab, kStabCount:
		return d.stabCount(q.a)
	case kQuery3:
		return d.q3Count(q.a, q.b, q.c)
	case kRange:
		return d.rangeCount(q.a, q.b, q.c, q.d)
	}
	return -1
}

// refBodyCounts simulates a run of bodies on the base data in arrival order
// and returns every query op's expected result count (three per body).
func (d *dataset) refBodyCounts(bs []body) []int {
	type live struct {
		c  float64
		id int32
	}
	var inserted [numStructs][]live
	var out []int
	for _, b := range bs {
		count := func() int {
			c := b.c
			var n int
			switch b.structure {
			case sInterval:
				n = d.stabCount(c + 0.05)
			case sRange:
				n = d.rangeCount(c-0.1, c+0.1, c-0.1, c+0.1)
			default:
				n = d.kdRangeCount(c-0.1, c+0.1)
			}
			for _, l := range inserted[b.structure] {
				if b.structure == sInterval {
					if l.c <= c+0.05 && c+0.05 <= l.c+0.1 {
						n++
					}
				} else if c-0.1 <= l.c && l.c <= c+0.1 {
					n++
				}
			}
			return n
		}
		s := b.structure
		out = append(out, count())
		inserted[s] = append(inserted[s], live{b.c, b.id})
		out = append(out, count())
		for i, l := range inserted[s] {
			if l.id == b.id {
				inserted[s] = append(inserted[s][:i], inserted[s][i+1:]...)
				break
			}
		}
		out = append(out, count())
	}
	return out
}
