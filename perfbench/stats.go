package main

import (
	"math"
	"sort"
)

// tailFloor is the number of samples a reported tail percentile must have
// beyond it; fewer make the tail one or two outliers rather than a tail.
const tailFloor = 10

// ladder is the percentiles the tail rule may choose from, highest first.
var ladder = []float64{0.999, 0.99, 0.9, 0.5}

// dist summarises one timing distribution: its median, the highest
// percentile of the ladder with at least tailFloor samples beyond it, and
// the sample count both rest on.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = percentile(xs, 0.5)
	if p, ok := tailPercentile(len(xs)); ok {
		d.TailP = p
		d.Tail = percentile(xs, p)
	}
	return d
}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least tailFloor of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range ladder {
		if float64(n)*(1-p) >= tailFloor-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile of xs (xs is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the midpoint median: the mean of the two middle values for an
// even count, so two passes report their mean rather than the faster one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
