package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeStatesSampleCountAndTail(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 150..1, unsorted input
	}
	d := summarize(xs)
	if d.N != 150 || d.TailP != 0.9 {
		t.Fatalf("summarize: n %d tail_p %v; want 150, 0.9", d.N, d.TailP)
	}
	// Nearest rank: p50 of 1..150 is the 75th value, p90 the 135th.
	if d.P50 != 75 || d.Tail != 135 {
		t.Errorf("summarize: p50 %v tail %v; want 75, 135", d.P50, d.Tail)
	}
	if beyond := 150 - int(d.Tail); beyond < tailFloor {
		t.Errorf("only %d samples beyond the tail", beyond)
	}
	if d := summarize(xs[:15]); d.TailP != 0 || d.Tail != 0 || d.N != 15 {
		t.Errorf("15 samples: %+v; want no tail", d)
	}
}

func TestMedianOfPasses(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{6.4, 6.2}, 6.3}, // two passes report their mean
		{[]float64{3, 100, 4, 5}, 4.5},
	} {
		if got := median(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLayerValuesTakeMedianPerPassAndPoolSlots(t *testing.T) {
	passes := []*passLayers{
		{SimRunS: 5, EncodeMS: 30, SlotPBS: []float64{1, 2}, SlotLocal: []float64{9}},
		{SimRunS: 1, EncodeMS: 10, SlotPBS: []float64{3}, SlotLocal: []float64{8}},
		{SimRunS: 3, EncodeMS: 99, SlotPBS: []float64{4, 5, 6}},
	}
	v, detail := layerValues(passes)
	if v["sim.run_s"] != 3 || v["dsio.encode_ms"] != 30 {
		t.Errorf("per-pass medians: run_s %v encode_ms %v; want 3, 30", v["sim.run_s"], v["dsio.encode_ms"])
	}
	// Slot percentiles pool every slot of every pass: 1..6.
	if v["sim.slot_pbs_p50_ms"] != 3 || v["sim.slot_pbs_p90_ms"] != 6 {
		t.Errorf("pooled pbs slots: p50 %v p90 %v; want 3, 6", v["sim.slot_pbs_p50_ms"], v["sim.slot_pbs_p90_ms"])
	}
	// The slot count is per pass: 2, 1, 3 -> 2.
	if v["sim.slots_pbs"] != 2 || v["sim.slots_local"] != 1 {
		t.Errorf("slot counts: pbs %v local %v; want 2, 1", v["sim.slots_pbs"], v["sim.slots_local"])
	}
	if d := detail["slot_ms"].(map[string]dist)["pbs"]; d.N != 6 {
		t.Errorf("pooled pbs sample count %d, want 6", d.N)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range declared {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s #%d: declared %s (%s), printed %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
