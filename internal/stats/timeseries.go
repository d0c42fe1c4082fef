package stats

import (
	"sort"
	"time"
)

// TimedValue is a metric observation at an instant, the unit of WiScape's
// temporal analysis.
type TimedValue struct {
	T time.Time
	V float64
}

// SortTimed orders vs by timestamp in place.
func SortTimed(vs []TimedValue) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].T.Before(vs[j].T) })
}

// Bin is the aggregate of the observations falling into one time bin.
type Bin struct {
	Start time.Time
	Accum Accum
}

// BinByDuration groups vs (any order) into consecutive bins of the given
// width starting at the first observation's bin boundary, and returns the
// non-empty bins in time order. The paper aggregates Spot data into 30-min
// ("coarse") and 10-s ("fine") bins this way (§3.2.1, Table 4).
func BinByDuration(vs []TimedValue, width time.Duration) []Bin {
	if len(vs) == 0 || width <= 0 {
		return nil
	}
	byIdx := make(map[int64]*Bin)
	for _, v := range vs {
		idx := v.T.UnixNano() / int64(width)
		b, ok := byIdx[idx]
		if !ok {
			b = &Bin{Start: time.Unix(0, idx*int64(width)).UTC()}
			byIdx[idx] = b
		}
		b.Accum.Add(v.V)
	}
	out := make([]Bin, 0, len(byIdx))
	for _, b := range byIdx {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// BinMeans returns the per-bin means of BinByDuration, the series most
// figure harnesses consume.
func BinMeans(vs []TimedValue, width time.Duration) []float64 {
	bins := BinByDuration(vs, width)
	out := make([]float64, len(bins))
	for i := range bins {
		out[i] = bins[i].Accum.Mean()
	}
	return out
}

// RegularSeries resamples vs onto a regular grid of the given period: each
// grid slot takes the mean of the observations in it; empty slots carry the
// previous value forward (and the first non-empty value backward). Allan
// deviation requires a regularly sampled series; opportunistic client data
// is not regular, so this adapter bridges the two.
func RegularSeries(vs []TimedValue, period time.Duration) []float64 {
	if len(vs) == 0 || period <= 0 {
		return nil
	}
	sorted := append([]TimedValue(nil), vs...)
	SortTimed(sorted)
	start := sorted[0].T
	end := sorted[len(sorted)-1].T
	n := int(end.Sub(start)/period) + 1
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, v := range sorted {
		i := int(v.T.Sub(start) / period)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		sums[i] += v.V
		counts[i]++
	}
	out := make([]float64, n)
	last := 0.0
	seeded := false
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			last = sums[i] / float64(counts[i])
			seeded = true
		}
		out[i] = last
	}
	if !seeded {
		return nil
	}
	// Backfill any leading slots before the first observation (cannot occur
	// given start = first timestamp, but kept for safety with clock skew).
	return out
}
