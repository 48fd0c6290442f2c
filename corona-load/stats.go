package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between the two closest ranks (the "type 7"
// estimator, as numpy and R default to). An empty sample yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// dist is a latency or size distribution summarized the way the report
// prints it: median, p90, p99, and how many samples back them.
type dist struct {
	N             int
	P50, P90, P99 float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	return dist{N: len(xs), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99)}
}

// bucketQuantile estimates the q-quantile of a fixed-bucket histogram:
// counts[i] holds observations at most bounds[i] (and above bounds[i-1]),
// with one trailing overflow bucket. Inside the bucket the rank falls in
// it interpolates linearly; the overflow bucket reports the last bound.
// No observations yields 0.
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (rank-seen)/float64(c)*(bounds[i]-lo)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}

// subCounts returns after−before per bucket; the histograms only grow, so
// a negative difference means the two snapshots are of different series
// and the bucket reads 0.
func subCounts(after, before []uint64) []uint64 {
	out := make([]uint64, len(after))
	for i := range after {
		if i < len(before) && before[i] <= after[i] {
			out[i] = after[i] - before[i]
		} else if i >= len(before) {
			out[i] = after[i]
		}
	}
	return out
}

// ratio divides, reading 0 when the base is empty: every per-layer ratio
// names its base, and an empty base means the layer did no such work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// parts is how many equal slices a window is cut into. Each end-to-end
// figure is computed per slice and the median across slices reported, so
// a burst of interference from outside the process moves one slice, not
// the result.
const parts = 5

// sliceOf returns which of parts equal slices of [t0, t1) holds t, or -1.
func sliceOf(t, t0, t1 time.Time) int {
	if t.Before(t0) || !t.Before(t1) {
		return -1
	}
	return int(int64(t.Sub(t0)) * parts / int64(t1.Sub(t0)))
}

// slicedQuantile computes the q-quantile of each slice's samples (placed
// by the instant their version was first served) and returns the median
// across slices, with the per-slice values.
func slicedQuantile(samples []latency, pick func(latency) float64, t0, t1 time.Time, q float64) (float64, []float64) {
	var bins [parts][]float64
	for _, s := range samples {
		if k := sliceOf(s.first, t0, t1); k >= 0 {
			bins[k] = append(bins[k], pick(s))
		}
	}
	per := make([]float64, 0, parts)
	for _, b := range bins {
		if len(b) > 0 {
			sort.Float64s(b)
			per = append(per, quantile(b, q))
		}
	}
	return medianOf(per), per
}

// perUpdateQuantile computes the q-quantile of each update's deliveries
// and returns the median across updates: how long the typical update
// takes to reach all but the last tenth of its subscribers, when q is
// 0.9. A tail taken per update is set by that update's own fan-out, so a
// few updates slowed by interference from outside the process cannot
// move it the way they move a tail pooled over every delivery.
func perUpdateQuantile(samples []latency, q float64) float64 {
	type update struct {
		path string
		ver  uint64
	}
	groups := make(map[update][]float64)
	for _, s := range samples {
		u := update{s.path, s.ver}
		groups[u] = append(groups[u], s.notify)
	}
	per := make([]float64, 0, len(groups))
	for _, g := range groups {
		sort.Float64s(g)
		per = append(per, quantile(g, q))
	}
	return medianOf(per)
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
