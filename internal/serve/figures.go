package serve

import (
	"math"

	"github.com/ethpbs/pbslab/internal/stats"
)

// seriesJSON is the wire form of a stats.Series. Undefined days (NaN) are
// encoded as JSON null — encoding/json rejects NaN outright, and a daemon
// must never fail to encode its own data.
type seriesJSON struct {
	Start  int        `json:"start"`
	Values []*float64 `json:"values"`
}

func toSeriesJSON(s stats.Series) seriesJSON {
	out := seriesJSON{Start: s.Start, Values: make([]*float64, len(s.Values))}
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		v := v
		out.Values[i] = &v
	}
	return out
}

// pointJSON is one day's value; null when the day is undefined.
func pointJSON(s stats.Series, day int) *float64 {
	v := s.Day(day)
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// figureItem is one row of the figure listing, precomputed per snapshot.
type figureItem struct {
	Key   string `json:"key"`
	Title string `json:"title"`
}
