package stats

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// DayAgg is a fixed-group, fixed-span daily accumulator: the array-backed
// counterpart of Grouped for the hot single-pass index in internal/core.
// Where Grouped pays a map lookup and a slice append per sample, DayAgg
// indexes two flat arrays — and, when samples themselves are not needed
// (means, shares, HHI), stores only running sums and counts.
//
// Determinism contract: provided samples are added in the same order a
// sequential Grouped would see them, every reduction below is bit-identical
// to the Grouped equivalent. Running sums accumulate in add order (the same
// float additions Sum performs), shares and HHI total groups in sorted-name
// order (matching Grouped.ShareOfDay / DailyHHI), and output series span
// exactly the observed [min, max] day range.
//
// Sharding contract: partial DayAggs filled over disjoint day ranges merge
// into the same state as one filled sequentially, because per-day state is
// only ever touched by the shard owning that day.
type DayAgg struct {
	lo, hi int      // allocated day span, inclusive
	groups []string // sorted unique labels
	byName map[string]int

	sum [][]float64 // [group][day-lo] running sums, add order
	cnt [][]int     // [group][day-lo] sample counts

	keep    bool
	samples [][][]float64 // [group][day-lo][] when keep

	minDay, maxDay int
	any            bool

	// Workers bounds day-level parallelism inside reductions needing
	// per-day sorts (quantiles, std). 0 or 1 means serial.
	Workers int
}

// NewDayAgg allocates an accumulator for days in [lo, hi] and the given
// group labels (deduplicated, sorted). keepSamples retains per-day sample
// slices for reductions that need full distributions.
func NewDayAgg(lo, hi int, keepSamples bool, groups ...string) *DayAgg {
	if hi < lo {
		hi = lo
	}
	uniq := append([]string(nil), groups...)
	sort.Strings(uniq)
	n := 0
	for i, g := range uniq {
		if i == 0 || uniq[i-1] != g {
			uniq[n] = g
			n++
		}
	}
	uniq = uniq[:n]
	d := &DayAgg{
		lo: lo, hi: hi,
		groups: uniq,
		byName: make(map[string]int, n),
		sum:    make([][]float64, n),
		cnt:    make([][]int, n),
		keep:   keepSamples,
	}
	span := hi - lo + 1
	for i, g := range uniq {
		d.byName[g] = i
		d.sum[i] = make([]float64, span)
		d.cnt[i] = make([]int, span)
	}
	if keepSamples {
		d.samples = make([][][]float64, n)
		for i := range d.samples {
			d.samples[i] = make([][]float64, span)
		}
	}
	return d
}

// GroupIndex resolves a label to its slot; -1 when unknown.
func (d *DayAgg) GroupIndex(name string) int {
	if i, ok := d.byName[name]; ok {
		return i
	}
	return -1
}

// Groups returns the labels in slot (sorted) order.
func (d *DayAgg) Groups() []string { return d.groups }

// Add records one sample for group slot g on day. Days outside the
// allocated span are ignored.
func (d *DayAgg) Add(day, g int, v float64) {
	if day < d.lo || day > d.hi || g < 0 {
		return
	}
	i := day - d.lo
	d.sum[g][i] += v
	d.cnt[g][i]++
	if d.keep {
		d.samples[g][i] = append(d.samples[g][i], v)
	}
	if !d.any || day < d.minDay {
		d.minDay = day
	}
	if !d.any || day > d.maxDay {
		d.maxDay = day
	}
	d.any = true
}

// Merge folds a partial accumulator filled over a disjoint day range into
// d. Both must share the allocated span and group set (built by the same
// NewDayAgg call shape).
func (d *DayAgg) Merge(o *DayAgg) {
	if o == nil || !o.any {
		return
	}
	for g := range d.sum {
		for i := o.minDay - o.lo; i <= o.maxDay-o.lo; i++ {
			if o.cnt[g][i] == 0 {
				continue
			}
			d.sum[g][i] += o.sum[g][i]
			d.cnt[g][i] += o.cnt[g][i]
			if d.keep {
				d.samples[g][i] = append(d.samples[g][i], o.samples[g][i]...)
			}
		}
	}
	if !d.any || o.minDay < d.minDay {
		d.minDay = o.minDay
	}
	if !d.any || o.maxDay > d.maxDay {
		d.maxDay = o.maxDay
	}
	d.any = true
}

// Observed reports whether the group received any sample.
func (d *DayAgg) Observed(name string) bool {
	g := d.GroupIndex(name)
	if g < 0 || !d.any {
		return false
	}
	for i := d.minDay - d.lo; i <= d.maxDay-d.lo; i++ {
		if d.cnt[g][i] > 0 {
			return true
		}
	}
	return false
}

// series allocates the output shape covering the observed day range.
func (d *DayAgg) series() (Series, bool) {
	if !d.any {
		return Series{}, false
	}
	return Series{Start: d.minDay, Values: make([]float64, d.maxDay-d.minDay+1)}, true
}

// SeriesMean renders the per-day mean of the group (NaN on empty days),
// identical to Grouped.Reduce(name, Mean).
func (d *DayAgg) SeriesMean(name string) Series {
	out, ok := d.series()
	g := d.GroupIndex(name)
	if !ok || g < 0 {
		return out
	}
	for i := range out.Values {
		j := d.minDay - d.lo + i
		if d.cnt[g][j] == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = d.sum[g][j] / float64(d.cnt[g][j])
		}
	}
	return out
}

// SeriesSum renders the per-day sum of the group (NaN on empty days),
// identical to Grouped.Reduce(name, Sum).
func (d *DayAgg) SeriesSum(name string) Series {
	out, ok := d.series()
	g := d.GroupIndex(name)
	if !ok || g < 0 {
		return out
	}
	for i := range out.Values {
		j := d.minDay - d.lo + i
		if d.cnt[g][j] == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = d.sum[g][j]
		}
	}
	return out
}

// SeriesReduce renders the group under an arbitrary reduction over the
// retained samples (requires keepSamples). Days are reduced in parallel
// across d.Workers — each day's output slot is written by exactly one
// goroutine, so the result is deterministic.
func (d *DayAgg) SeriesReduce(name string, reduce func([]float64) float64) Series {
	out, ok := d.series()
	g := d.GroupIndex(name)
	if !ok || g < 0 || !d.keep {
		return out
	}
	ParallelDays(len(out.Values), d.Workers, func(i int) {
		s := d.samples[g][d.minDay-d.lo+i]
		if len(s) == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = reduce(s)
		}
	})
	return out
}

// Share renders the group's daily share of the all-group total, matching
// Grouped.ShareOfDay: group sums are totalled in sorted-name order, and a
// zero total yields NaN.
func (d *DayAgg) Share(name string) Series {
	out, ok := d.series()
	mine := d.GroupIndex(name)
	if !ok {
		return out
	}
	for i := range out.Values {
		j := d.minDay - d.lo + i
		var total, m float64
		for g := range d.groups {
			s := d.sum[g][j]
			if d.cnt[g][j] == 0 {
				s = 0
			}
			total += s
			if g == mine {
				m = s
			}
		}
		if total == 0 {
			out.Values[i] = math.NaN()
		} else {
			out.Values[i] = m / total
		}
	}
	return out
}

// HHI renders daily concentration across the groups, matching
// Grouped.DailyHHI: sizes enter in sorted-name order, and days without any
// sample yield NaN.
func (d *DayAgg) HHI() Series {
	out, ok := d.series()
	if !ok {
		return out
	}
	sizes := make([]float64, 0, len(d.groups))
	for i := range out.Values {
		j := d.minDay - d.lo + i
		sizes = sizes[:0]
		anyDay := false
		for g := range d.groups {
			if d.cnt[g][j] == 0 {
				continue
			}
			anyDay = true
			sizes = append(sizes, d.sum[g][j])
		}
		if !anyDay {
			out.Values[i] = math.NaN()
			continue
		}
		out.Values[i] = HHI(sizes)
	}
	return out
}

// Count returns the group's total sample count over the observed range.
func (d *DayAgg) Count(name string) int {
	g := d.GroupIndex(name)
	if g < 0 || !d.any {
		return 0
	}
	n := 0
	for i := d.minDay - d.lo; i <= d.maxDay-d.lo; i++ {
		n += d.cnt[g][i]
	}
	return n
}

// ParallelDays runs fn(i) for every i in [0, n) across at most workers
// goroutines, each taking the next unclaimed index from a shared counter,
// so uneven tasks balance across the pool. fn must write only state owned
// by index i; under that contract the result is independent of
// scheduling. workers <= 1 runs inline, in index order.
//
// A panic in fn no longer kills the process from a worker goroutine: it is
// recovered, carried back, and re-raised on the calling goroutine as a
// *WorkerPanicError so callers up the stack can still recover it.
func ParallelDays(n, workers int, fn func(i int)) {
	err := ParallelDaysErr(context.Background(), n, workers, func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// WorkerPanicError wraps a panic recovered inside a ParallelDaysErr worker,
// preserving the failing index, the panic value and the worker's stack.
type WorkerPanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("stats: worker panic at index %d: %v", e.Index, e.Value)
}

// ParallelDaysErr is the fault-aware ParallelDays: fn may fail, panics in
// fn are recovered into *WorkerPanicError values, and ctx cancellation
// stops the sweep between indices. The first failure wins (remaining
// workers stop claiming indices) and is returned after every worker has
// exited, so no goroutine outlives the call. Indices are handed out one
// at a time from a shared counter, the same hand-out as ParallelDays.
func ParallelDaysErr(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				fail(&WorkerPanicError{Index: i, Value: r, Stack: debug.Stack()})
			}
		}()
		if err := fn(i); err != nil {
			fail(err)
		}
	}
	work := func() {
		for !stop.Load() {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			runOne(i)
		}
	}
	if workers <= 1 {
		work()
		return firstErr
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return firstErr
}
