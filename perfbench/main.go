// Command perfbench is the repository benchmark. It drives one workload
// through the public functions of pbslab's layers (sim, core, dsio,
// report, fleet), times each call from outside the program, checks every
// pass's output, and prints one JSON result line last on stdout:
//
//	bash perfbench/run.sh --workload window --seed 1 --seconds 38 --trace 0
//
// Workloads, metrics and the reasons for both are in README.md beside
// this file. --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer breakdown and writes the run's spans under .bench_build/traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/sim"
)

// procStart approximates process start for own_setup_s when run.sh
// handed down no exec time.
var procStart = time.Now()

// envSpawn carries the wall-clock nanosecond at which run.sh exec'd the
// benchmark; envProbe marks a set-up probe process.
const (
	envProbe = "PERFBENCH_SETUP_PROBE"
	envSpawn = "PERFBENCH_SPAWN_NS"
	// Set-up probes before the first op and after each op.
	probesFirst   = 3
	probesAfterOp = 2
)

// Workloads. See README.md for why each exists.
var pipelines = map[string]pipelineInput{
	// The whole paper window at a low density: every era the paper
	// measures, with the relay auction in most slots.
	"window": {BlocksPerDay: 1, Scale: 1, Scenarios: 4},
	// A short window at a high scale, where adoption has levelled off:
	// every auction is eight times as wide.
	"dense": {Start: "2022-12-01", Days: 4, BlocksPerDay: 4, Scale: 8, Scenarios: 3},
}

func main() {
	// The fleet workload re-executes this binary as its cell workers.
	fleet.MaybeWorker()
	runtime.GOMAXPROCS(nproc())
	workload := flag.String("workload", "", "window, dense or fleet")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	if _, ok := pipelines[*workload]; !ok && *workload != "fleet" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want window, dense, fleet or all)\n", *workload)
		os.Exit(2)
	}
	if os.Getenv(envProbe) != "" {
		os.Exit(probe(*workload, *seed))
	}
	os.Exit(run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// runAll runs window, dense and fleet one after another, each in its own
// process as the single-workload command would, passes their output
// through, and ends with a table of every metric with its unit and each
// workload's attempted and failed op counts.
func runAll(seed uint64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var table []string
	code := 0
	for _, w := range []string{"window", "dense", "fleet"} {
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		os.Stdout.Write(raw)
		if err != nil {
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			table = append(table, fmt.Sprintf("%-7s no result (%v)", w, err))
			code = 1
			continue
		}
		table = append(table, fmt.Sprintf("%-7s correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed))
		list := endToEnd
		if trace == 1 {
			list = perLayer
		}
		for _, m := range list {
			table = append(table, fmt.Sprintf("%-7s %-28s %14.4f %s", w, m.name, res.Metrics[m.name].Value, m.unit))
		}
	}
	fmt.Println(strings.Join(table, "\n"))
	return code
}

// nproc is the CPU count every pool and GOMAXPROCS are set to.
func nproc() int { return runtime.NumCPU() }

// prepared is everything set-up builds before the first timed op.
type prepared struct {
	scratch string
	scs     []sim.Scenario // window, dense
	grid    *fleet.Grid    // fleet
	cells   []fleet.Cell   // fleet
	exe     string         // fleet
}

// setup builds the scenario or grid and the scratch directory: the work
// setup_s times.
func setup(workload string, seed uint64) (*prepared, error) {
	p := &prepared{scratch: filepath.Join(".bench_build", "scratch", fmt.Sprintf("%s-%d", workload, os.Getpid()))}
	if err := os.RemoveAll(p.scratch); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, err
	}
	var err error
	if in, ok := pipelines[workload]; ok {
		p.scs, err = in.scenarios(seed, nproc())
		return p, err
	}
	p.grid = fleetGrid(seed)
	if p.cells, err = p.grid.Expand(); err != nil {
		return nil, err
	}
	p.exe, err = os.Executable()
	return p, err
}

// probe is a set-up probe process: it sets up exactly as a run would,
// prints the wall-clock nanosecond it became ready, and cleans up.
func probe(workload string, seed uint64) int {
	p, err := setup(workload, seed)
	ready := time.Now().UnixNano()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
		return 1
	}
	fmt.Println(ready)
	if err := os.RemoveAll(p.scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
		return 1
	}
	return 0
}

// probeSetups spawns n set-up probes one after another and returns each
// one's spawn-to-ready time in seconds.
func probeSetups(workload string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
		cmd.Env = append(os.Environ(), envProbe+"=1")
		cmd.Stderr = os.Stderr
		spawn := time.Now().UnixNano()
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", raw, err)
		}
		out = append(out, float64(ready-spawn)/1e9)
	}
	return out, nil
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line before the result: what was run, on what host, and
// the detail behind every metric.
type record struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Traced   bool      `json:"traced"`
	Seconds  float64   `json:"seconds"`
	Env      env       `json:"env"`
	Input    any       `json:"input"`
	SetupS   []float64 `json:"setup_s"`
	// StealPct is the share of the machine's CPU time its hypervisor stole
	// during the run: host interference, shown beside the figures it
	// disturbs and never used to adjust them.
	StealPct *float64       `json:"host_steal_pct"`
	OwnSetup float64        `json:"own_setup_s"`
	Ops      []any          `json:"ops"`
	Detail   map[string]any `json:"detail,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	SpanFile string         `json:"span_file,omitempty"`
}

func run(workload string, seed uint64, budget time.Duration, traced bool) int {
	t0 := procStart
	if ns, err := strconv.ParseInt(os.Getenv(envSpawn), 10, 64); err == nil {
		t0 = time.Unix(0, ns)
	}
	p, err := setup(workload, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	own := time.Since(t0).Seconds()
	defer os.RemoveAll(p.scratch)

	rec := &record{Workload: workload, Seed: seed, Traced: traced, OwnSetup: own}
	rec.Env = readEnv(".")
	stolen := stealPct()
	// Process start-up time swings with the host's state from one second
	// to the next, so set-up is sampled before the first op and again
	// after every op rather than in one burst.
	var probeErr error
	sample := func(n int) {
		if probeErr == nil {
			var xs []float64
			xs, probeErr = probeSetups(workload, seed, n)
			rec.SetupS = append(rec.SetupS, xs...)
		}
	}
	sample(probesFirst)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ctx := context.Background()
	var res result
	after := func() { sample(probesAfterOp) }
	if workload == "fleet" {
		res = runFleet(ctx, p, seed, budget, tr, rec, after)
	} else {
		res = runPasses(ctx, p, workload, seed, budget, tr, rec, after)
	}
	if probeErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", probeErr)
		return 1
	}
	rec.StealPct = stolen()
	if !traced {
		res.Metrics["setup_s"] = metric{median(rec.SetupS), "s"}
	} else {
		name := fmt.Sprintf("spans-%s-seed%d-%s", workload, seed, tr.epoch.UTC().Format("20060102T150405.000"))
		path, err := tr.write(filepath.Join(".bench_build", "traces"), name, rec)
		if err != nil {
			res.Correct = false
			rec.Failures = append(rec.Failures, "span file: "+err.Error())
		}
		rec.SpanFile = path
	}
	for _, line := range []any{rec, res} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(data))
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their output check: %s\n",
			res.Failed, res.Attempted, strings.Join(rec.Failures, "; "))
		return 1
	}
	return 0
}

// loop runs op until the budget is spent: another op starts only while
// half the median op so far still fits, so a run overshoots its budget by
// at most about half an op. minOps ops always run. after runs, untimed,
// after every op.
func loop(budget time.Duration, minOps int, op func(i int) time.Duration, after func()) {
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		if i >= minOps {
			left := budget - time.Since(start)
			if left <= 0 || time.Duration(median(walls)/2*1e9) > left {
				return
			}
		}
		walls = append(walls, op(i).Seconds())
		after()
	}
}
