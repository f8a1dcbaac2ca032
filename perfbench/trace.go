package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Op names the pass or fleet cell
// the call served; Parent is the id of the span that caused it (0 for a
// root). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Op     string         `json:"op"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	tracer *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and begin returns a nil span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// begin opens a span now under parent (nil for a root).
func (t *tracer) begin(name, op string, parent *span) *span {
	return t.add(name, op, parent, time.Now(), time.Time{})
}

// add records a span whose bounds were measured elsewhere (slot intervals,
// transport attempts); a zero end leaves it open for end.
func (t *tracer) add(name, op string, parent *span, start, end time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{Op: op, Name: name, Start: t.since(start), tracer: t}
	if !end.IsZero() {
		s.End = t.since(end)
	}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes s now and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.End = s.tracer.since(time.Now())
	return s.dur()
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// set attaches a count or label to s.
func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	s.Attrs[key] = v
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel fleet attempts), so the covered part is the union of their
// intervals clipped to the parent, not the sum of their durations.
func selfTimes(spans []*span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// byName folds the spans' durations and self times per span name.
func byName(spans []*span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.TotalS += s.dur().Seconds()
		lt.SelfS += self[s.ID].Seconds()
		out[s.Name] = lt
	}
	return out
}

// write saves the run's spans and their per-name self times as one JSON
// document, dir/name.json.
func (t *tracer) write(dir, name string, head any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Run    any                  `json:"run"`
		Epoch  time.Time            `json:"epoch"`
		Layers map[string]layerTime `json:"layers"`
		Spans  []*span              `json:"spans"`
	}{head, t.epoch, byName(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	return path, os.WriteFile(path, data, 0o644)
}
