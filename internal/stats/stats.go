// Package stats implements the statistical measures the paper's analysis
// uses: the Herfindahl-Hirschman Index for market concentration (Figures 6),
// quantiles and box-plot summaries (Figures 10-12), the Gini coefficient the
// paper contrasts HHI against, and small time-series helpers for the daily
// aggregations that drive every figure.
//
// Two aggregation layers coexist. Grouped is the incremental map-based
// accumulator the figure scans feed block by block; DayAgg is the
// fixed-group, fixed-span array form the analysis engine's single-pass
// index uses, built per shard and merged across disjoint day ranges with
// bit-identical results (see DayAgg.Merge). ParallelDays is the shared
// work-queue parallel-for that runs the sharded passes, the per-day
// reductions and the slot engine's builds and relay commits. All reductions iterate groups in sorted-name order
// so output bytes never depend on map iteration order or worker count.
package stats

import (
	"math"
	"sort"
)

// HHI computes the Herfindahl-Hirschman Index of a market from per-player
// sizes (any non-negative measure: block counts, volumes). The result is in
// [0, 1]; 1 is a monopoly. Zero-size players do not affect the result, and a
// market with no positive sizes has HHI 0.
func HHI(sizes []float64) float64 {
	var total float64
	for _, s := range sizes {
		if s > 0 {
			total += s
		}
	}
	if total <= 0 {
		return 0
	}
	var hhi float64
	for _, s := range sizes {
		if s <= 0 {
			continue
		}
		share := s / total
		hhi += share * share
	}
	return hhi
}

// HHIMap is HHI over a map's values; convenient for per-entity tallies.
func HHIMap[K comparable](sizes map[K]float64) float64 {
	vals := make([]float64, 0, len(sizes))
	for _, v := range sizes {
		vals = append(vals, v)
	}
	return HHI(vals)
}

// Concentration bands used when interpreting HHI, following the DOJ/FTC
// convention the paper cites (Rhoades 1993).
const (
	// HHIUnconcentrated is the upper bound of an unconcentrated market.
	HHIUnconcentrated = 0.15
	// HHIModerate is the upper bound of a moderately concentrated market.
	HHIModerate = 0.25
)

// Gini computes the Gini coefficient of the sizes (0 = perfect equality).
// The paper notes HHI is preferred because it accounts for the number of
// players; Gini is provided for the comparison.
func Gini(sizes []float64) float64 {
	vals := make([]float64, 0, len(sizes))
	var total float64
	for _, s := range sizes {
		if s >= 0 {
			vals = append(vals, s)
			total += s
		}
	}
	n := len(vals)
	if n == 0 || total == 0 {
		return 0
	}
	sort.Float64s(vals)
	var weighted float64
	for i, v := range vals {
		weighted += float64(i+1) * v
	}
	return (2*weighted)/(float64(n)*total) - float64(n+1)/float64(n)
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It returns NaN for empty input.
// The input need not be sorted.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Std returns the population standard deviation, or NaN for empty input.
func Std(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	mean := Mean(values)
	var sq float64
	for _, v := range values {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(values)))
}

// Sum returns the total of values.
func Sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// Box is a five-number summary plus mean and count, as rendered by the
// paper's box plots (Figures 11 and 12).
type Box struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// BoxOf summarizes values. The zero Box is returned for empty input.
func BoxOf(values []float64) Box {
	if len(values) == 0 {
		return Box{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Box{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
	}
}

// IQR returns the interquartile range.
func (b Box) IQR() float64 { return b.Q3 - b.Q1 }

// Series is a day-indexed time series. Days are integer offsets from the
// start of the measurement window; every figure in the paper is a daily
// aggregate, so this is the common output shape of the analysis layer.
type Series struct {
	Start  int // first day covered
	Values []float64
}

// Day returns the value for day d, or NaN if out of range.
func (s Series) Day(d int) float64 {
	i := d - s.Start
	if i < 0 || i >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[i]
}

// Len returns the number of days covered.
func (s Series) Len() int { return len(s.Values) }

// MeanValue returns the mean over defined (non-NaN) days.
func (s Series) MeanValue() float64 {
	var sum float64
	n := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MinMax returns the smallest and largest defined values.
func (s Series) MinMax() (min, max float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max
}

// Grouped accumulates float64 samples per (day, group) pair and renders
// per-group daily aggregates. It is the workhorse behind "daily share per
// relay/builder" figures.
type Grouped struct {
	days   map[int]map[string][]float64
	minDay int
	maxDay int
	any    bool
}

// NewGrouped returns an empty accumulator.
func NewGrouped() *Grouped {
	return &Grouped{days: map[int]map[string][]float64{}}
}

// Add records one sample for group g on day d.
func (gr *Grouped) Add(d int, g string, v float64) {
	m, ok := gr.days[d]
	if !ok {
		m = map[string][]float64{}
		gr.days[d] = m
	}
	m[g] = append(m[g], v)
	if !gr.any || d < gr.minDay {
		gr.minDay = d
	}
	if !gr.any || d > gr.maxDay {
		gr.maxDay = d
	}
	gr.any = true
}

// Groups returns the group labels seen, sorted.
func (gr *Grouped) Groups() []string {
	set := map[string]bool{}
	for _, m := range gr.days {
		for g := range m {
			set[g] = true
		}
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// DayRange returns the covered day span, inclusive. ok is false when no
// samples were added.
func (gr *Grouped) DayRange() (lo, hi int, ok bool) {
	return gr.minDay, gr.maxDay, gr.any
}

// Reduce renders one group's daily series under the given reduction
// (e.g. Mean, Median, Sum). Days without samples yield NaN.
func (gr *Grouped) Reduce(group string, reduce func([]float64) float64) Series {
	if !gr.any {
		return Series{}
	}
	out := Series{Start: gr.minDay, Values: make([]float64, gr.maxDay-gr.minDay+1)}
	for i := range out.Values {
		samples := gr.days[gr.minDay+i][group]
		if len(samples) == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = reduce(samples)
		}
	}
	return out
}

// ShareOfDay renders the daily share of group within the sum over all
// groups, treating each sample as a count/weight. Days without samples
// yield NaN. Groups are totalled in sorted-name order, so the result is a
// deterministic function of the added samples.
func (gr *Grouped) ShareOfDay(group string) Series {
	if !gr.any {
		return Series{}
	}
	out := Series{Start: gr.minDay, Values: make([]float64, gr.maxDay-gr.minDay+1)}
	for i := range out.Values {
		day := gr.days[gr.minDay+i]
		var total, mine float64
		for _, g := range sortedKeys(day) {
			s := Sum(day[g])
			total += s
			if g == group {
				mine = s
			}
		}
		if total == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = mine / total
		}
	}
	return out
}

// DailyHHI renders the concentration of the groups day by day, weighting
// each group by the sum of its samples (typically counts). Group sizes are
// accumulated in sorted-name order for determinism.
func (gr *Grouped) DailyHHI() Series {
	if !gr.any {
		return Series{}
	}
	out := Series{Start: gr.minDay, Values: make([]float64, gr.maxDay-gr.minDay+1)}
	for i := range out.Values {
		day := gr.days[gr.minDay+i]
		if len(day) == 0 {
			out.Values[i] = math.NaN()
			continue
		}
		sizes := make([]float64, 0, len(day))
		for _, g := range sortedKeys(day) {
			sizes = append(sizes, Sum(day[g]))
		}
		out.Values[i] = HHI(sizes)
	}
	return out
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge appends every sample of other into gr, preserving other's per-day
// sample order. When gr and other cover disjoint day ranges (the sharded
// single-pass build in internal/core), the merged accumulator is
// indistinguishable from one filled sequentially in day order.
func (gr *Grouped) Merge(other *Grouped) {
	if other == nil || !other.any {
		return
	}
	for d, groups := range other.days {
		m, ok := gr.days[d]
		if !ok {
			m = map[string][]float64{}
			gr.days[d] = m
		}
		for g, samples := range groups {
			m[g] = append(m[g], samples...)
		}
	}
	if !gr.any || other.minDay < gr.minDay {
		gr.minDay = other.minDay
	}
	if !gr.any || other.maxDay > gr.maxDay {
		gr.maxDay = other.maxDay
	}
	gr.any = true
}
