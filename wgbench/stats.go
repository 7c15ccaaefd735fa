package main

import (
	"math"
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between order statistics; NaN when xs is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones computed from the same values there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// minTail is the number of samples a reported percentile must have beyond
// it.
const minTail = 10

// windowedQuantile splits samples (in completion order) into consecutive
// windows that each hold enough samples for quantile q to have minTail
// beyond it, and returns the median of the windows' q-quantiles. A burst
// of interference then moves one window, not the reported figure. With
// too few samples for two windows it is the plain quantile.
func windowedQuantile(samples []float64, q float64) float64 {
	per := int(math.Ceil(minTail / (1 - q)))
	k := len(samples) / per
	if k < 2 {
		return quantile(sortedCopy(samples), q)
	}
	var qs []float64
	for w := 0; w < k; w++ {
		lo, hi := w*len(samples)/k, (w+1)*len(samples)/k
		qs = append(qs, quantile(sortedCopy(samples[lo:hi]), q))
	}
	return median(qs)
}

// slicedRate splits a window of length wall into k equal time slices and
// returns the median over the slices of completions per second; ends are
// the completion times from the window's start.
func slicedRate(ends []time.Duration, wall time.Duration, k int) float64 {
	counts := make([]float64, k)
	for _, e := range ends {
		s := int(int64(e) * int64(k) / int64(wall))
		if s >= k {
			s = k - 1
		}
		counts[s]++
	}
	rates := make([]float64, k)
	for i, c := range counts {
		rates[i] = c / (wall.Seconds() / float64(k))
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
