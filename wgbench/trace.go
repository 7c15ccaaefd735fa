package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one, and Links lists
// further spans this one also ran on behalf of (a coalesced batch serves
// every member's submit span at once). Start and End are nanoseconds since
// the tracer was created.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Links  []int64          `json:"links,omitempty"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so traced and untraced runs share one code path.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// addCall records one Engine call: an "engine.<op>" span over the call,
// with the Report's phases attached as counts, and a "core.<op>" child
// covering Report.Wall, the time the run itself reports. A Report only
// gives Wall's length, so the child is placed at the end of the call,
// after the lock wait; the run accounting after it is short.
func (t *tracer) addCall(parent int64, links []int64, req int64, op string, start, end int64, rep *wegeom.Report) {
	if t == nil {
		return
	}
	counts := map[string]int64{}
	var wall int64
	if rep != nil {
		for _, ph := range rep.Phases {
			counts[ph.Name+".reads"] += ph.Cost.Reads
			counts[ph.Name+".writes"] += ph.Cost.Writes
		}
		counts["queries"] = int64(rep.Queries)
		counts["results"] = rep.Results
		wall = int64(rep.Wall)
	}
	id := t.add(span{Parent: parent, Links: links, Req: req, Name: "engine." + op, Start: start, End: end, Counts: counts})
	if wall > end-start {
		wall = end - start
	}
	t.add(span{Parent: id, Req: req, Name: "core." + op, Start: end - wall, End: end})
}

// layerSelf is one layer's self time: its spans' durations minus the part
// their children cover.
type layerSelf struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	MeanMs float64 `json:"mean_self_ms"`
}

func selfTimes(spans []span) []layerSelf {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
		for _, l := range s.Links {
			kids[l] = append(kids[l], iv{s.Start, s.End})
		}
	}
	agg := map[string]*layerSelf{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered, cur int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, cur), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		a := agg[layer]
		if a == nil {
			a = &layerSelf{Layer: layer}
			agg[layer] = a
		}
		a.Spans++
		a.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerSelf, 0, len(agg))
	for _, a := range agg {
		a.MeanMs = a.SelfMs / float64(a.Spans)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
