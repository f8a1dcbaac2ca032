// Command benchjson converts `go test -bench` output into a machine-readable
// JSON record, so benchmark baselines can be committed and diffed across PRs.
// It parses the standard benchmark line format — name, iteration count,
// ns/op, then any custom b.ReportMetric pairs — plus the goos/goarch/cpu
// header, and derives the headline ratios the DESIGN.md experiments track:
// index_build_share_of_regen (§6), the serving plane's
// overload contract serve_shed_rate_16x / serve_p99_ratio_16x_vs_1x (§9),
// the out-of-core scale contract scale_rss_ratio_100x_vs_1x (§11), and the
// sustained-load serving-tier contract sustained_speedup_vs_pr5 /
// sustained_p99_ratio_vs_pr5 (§13).
//
// Usage:
//
//	go test -bench . -benchtime 1x . | go run ./cmd/benchjson -o BENCH_pr2.json
//	go run ./cmd/benchjson -o BENCH_pr2.json bench-output.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Record is the full JSON document written to -o.
type Record struct {
	Goos       string                `json:"goos,omitempty"`
	Goarch     string                `json:"goarch,omitempty"`
	CPU        string                `json:"cpu,omitempty"`
	Pkg        string                `json:"pkg,omitempty"`
	Benchmarks map[string]*Benchmark `json:"benchmarks"`
	Derived    map[string]float64    `json:"derived,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkEngineRegenIndexed-8   3   412ms ns/op   19.00 artifacts
//
// The -8 GOMAXPROCS suffix is optional (absent on single-CPU runs).
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r io.Reader) (*Record, error) {
	rec := &Record{Benchmarks: map[string]*Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rec.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := &Benchmark{}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b.Iterations = iters
		// The tail is whitespace-separated <value> <unit> pairs.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				b.NsPerOp = v
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
		rec.Benchmarks[m[1]] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

// derive fills rec.Derived with ratios of interest where both sides exist.
func derive(rec *Record) {
	idx, okI := rec.Benchmarks["EngineRegenIndexed"]
	if build, ok := rec.Benchmarks["EngineIndexBuild"]; ok && okI && idx.NsPerOp > 0 {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		rec.Derived["index_build_share_of_regen"] = build.NsPerOp / idx.NsPerOp
	}
	// DESIGN.md §9: the serving plane's load-shedding contract. The shed
	// rate at 16× capacity shows overload is turned away explicitly, and
	// the p99 ratio shows the latency of what IS served stays bounded
	// rather than collapsing with offered load.
	base, okB := rec.Benchmarks["ServeLoad/load=1x"]
	hot, okH := rec.Benchmarks["ServeLoad/load=16x"]
	if okB && okH {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		if v, ok := hot.Metrics["shed_rate"]; ok {
			rec.Derived["serve_shed_rate_16x"] = v
		}
		if p1, ok1 := base.Metrics["p99_ms"]; ok1 && p1 > 0 {
			if p16, ok16 := hot.Metrics["p99_ms"]; ok16 {
				rec.Derived["serve_p99_ratio_16x_vs_1x"] = p16 / p1
			}
		}
	}
	// DESIGN.md §10: the experiment fleet's throughput scaling across
	// worker-subprocess counts, the fixed cost of -resume (journal replay +
	// re-verification + merge rebuild, no new work), and the chaos run's
	// recovery overhead and quarantine rate (0 means every injected fault
	// was recovered by retry rather than quarantined).
	f1, ok1 := rec.Benchmarks["FleetGrid/workers=1"]
	f4, ok4 := rec.Benchmarks["FleetGrid/workers=4"]
	f8, ok8 := rec.Benchmarks["FleetGrid/workers=8"]
	if ok1 && ok8 && f8.NsPerOp > 0 {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		rec.Derived["fleet_scaling_8x_vs_1x"] = f1.NsPerOp / f8.NsPerOp
	}
	// DESIGN.md §11: the out-of-core scale contract. The peak-RSS ratio at
	// 100× the corpus density versus 1× must stay far below 100× (the
	// acceptance gate is < 20), because the streamed index build never
	// holds more than the common section plus one decoded day.
	s1, okS1 := rec.Benchmarks["CorpusScale/scale=1x"]
	s100, okS100 := rec.Benchmarks["CorpusScale/scale=100x"]
	if okS1 && okS100 {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		if r1, ok := s1.Metrics["peak_rss_mb"]; ok && r1 > 0 {
			if r100, ok := s100.Metrics["peak_rss_mb"]; ok {
				rec.Derived["scale_rss_ratio_100x_vs_1x"] = r100 / r1
			}
		}
		if t1, ok := s1.Metrics["blocks_per_sec"]; ok && t1 > 0 {
			if t100, ok := s100.Metrics["blocks_per_sec"]; ok {
				rec.Derived["scale_throughput_ratio_100x_vs_1x"] = t100 / t1
			}
		}
	}
	if ok4 && f4.NsPerOp > 0 {
		if res, ok := rec.Benchmarks["FleetResume"]; ok {
			if rec.Derived == nil {
				rec.Derived = map[string]float64{}
			}
			rec.Derived["fleet_resume_overhead"] = res.NsPerOp / f4.NsPerOp
		}
		if chaos, ok := rec.Benchmarks["FleetChaos"]; ok {
			if rec.Derived == nil {
				rec.Derived = map[string]float64{}
			}
			rec.Derived["fleet_chaos_overhead"] = chaos.NsPerOp / f4.NsPerOp
			if q, ok := chaos.Metrics["quarantine_rate"]; ok {
				rec.Derived["fleet_quarantine_rate"] = q
			}
		}
	}
	// DESIGN.md §12: the multi-host dispatch plane. Four loopback agent
	// slots versus one local worker bounds the HTTP hop's cost (the grid
	// is CPU-bound, so on a single-CPU host the ratio is throughput-
	// neutral at best); the chaos row prices the seeded network fault
	// plan; the rescue rate records how often straggler re-dispatch, not
	// the original attempt, completed a cell.
	local, okLoc := rec.Benchmarks["FleetAgents/mode=local"]
	agents4, okA4 := rec.Benchmarks["FleetAgents/mode=agents-4x"]
	if okLoc && okA4 && agents4.NsPerOp > 0 {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		rec.Derived["agent_scaling_4x_vs_local"] = local.NsPerOp / agents4.NsPerOp
	}
	if chaos, ok := rec.Benchmarks["FleetAgents/mode=agents-4x-chaos"]; ok && okA4 && agents4.NsPerOp > 0 {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		rec.Derived["agent_chaos_overhead"] = chaos.NsPerOp / agents4.NsPerOp
	}
	if strag, ok := rec.Benchmarks["FleetAgents/mode=straggler"]; ok {
		if r, ok := strag.Metrics["rescue_rate"]; ok {
			if rec.Derived == nil {
				rec.Derived = map[string]float64{}
			}
			rec.Derived["agent_straggler_rescue_rate"] = r
		}
	}
	// DESIGN.md §13: the sustained-load serving tier. The cached closed-loop
	// arm against the 1× burst baseline from the same run yields the
	// headline speedup (acceptance: >= 10) and its p99 ratio (acceptance:
	// <= 2); hit rate and the cached-vs-uncached ratio complete the record.
	cached, okC := rec.Benchmarks["ServeSustained/mode=cached"]
	if okC && okB {
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		if t0, ok := base.Metrics["served_per_sec"]; ok && t0 > 0 {
			if t1, ok := cached.Metrics["served_per_sec"]; ok {
				rec.Derived["sustained_speedup_vs_pr5"] = t1 / t0
			}
		}
		if p0, ok := base.Metrics["p99_ms"]; ok && p0 > 0 {
			if p1, ok := cached.Metrics["p99_ms"]; ok {
				rec.Derived["sustained_p99_ratio_vs_pr5"] = p1 / p0
			}
		}
		if hr, ok := cached.Metrics["hit_rate"]; ok {
			rec.Derived["sustained_cache_hit_rate"] = hr
		}
	}
	if nocache, ok := rec.Benchmarks["ServeSustained/mode=nocache"]; ok && okC {
		if t0, ok := nocache.Metrics["served_per_sec"]; ok && t0 > 0 {
			if t1, ok := cached.Metrics["served_per_sec"]; ok {
				if rec.Derived == nil {
					rec.Derived = map[string]float64{}
				}
				rec.Derived["sustained_cache_speedup"] = t1 / t0
				// Closed-loop throughput is think-time-bounded; the p50
				// ratio shows the per-request work the cache removes.
				if q0, ok := nocache.Metrics["p50_ms"]; ok {
					if q1, ok := cached.Metrics["p50_ms"]; ok && q1 > 0 {
						rec.Derived["sustained_p50_speedup_vs_nocache"] = q0 / q1
					}
				}
			}
		}
	}
}

func main() {
	out := flag.String("o", "", "output JSON file (default stdout)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	rec, err := parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	derive(rec)

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rec.Benchmarks))
}
