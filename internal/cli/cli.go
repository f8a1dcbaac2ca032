package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/sim"
)

// Config is the common scenario/engine configuration behind both CLIs.
type Config struct {
	// Days truncates the paper window (0 = full window).
	Days int
	// BlocksPerDay scales the slot cadence.
	BlocksPerDay int
	// Seed selects the scenario seed.
	Seed uint64
	// Workers bounds the analysis/collection worker pools (0 = all CPUs).
	Workers int
	// SimWorkers sets the simulation slot engine's pool width: builder
	// block construction fans out over this many workers (0 = all CPUs).
	// Every setting produces byte-identical simulation output.
	SimWorkers int
	// CheckpointDir makes the simulation write a resumable checkpoint at
	// every day boundary and on interruption ("" = no checkpoints).
	CheckpointDir string
	// Resume continues a killed run from the newest matching checkpoint in
	// CheckpointDir instead of starting over.
	Resume bool
	// Timeout bounds the whole run (0 = no deadline). On expiry the run is
	// cancelled exactly like a SIGINT: checkpoint, flush, exit.
	Timeout time.Duration
	// Knobs holds the grid-swept scenario overrides (relay outages, OFAC
	// schedule, private-flow share, builder population). Invalid settings
	// are validation errors from Scenario, never silent defaults.
	Knobs Knobs
}

// Register declares the shared flags on fs and returns the bound Config.
func Register(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.IntVar(&c.Days, "days", 0, "window length in days (0 = full paper window)")
	fs.IntVar(&c.BlocksPerDay, "blocks-per-day", 24, "blocks simulated per day (mainnet: 7200)")
	fs.Uint64Var(&c.Seed, "seed", 1, "scenario seed")
	fs.IntVar(&c.Workers, "workers", 0, "analysis worker pool size (0 = all CPUs)")
	fs.IntVar(&c.SimWorkers, "sim-workers", 0, "simulation slot-engine workers (0 = all CPUs)")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "write per-day simulation checkpoints into this directory")
	fs.BoolVar(&c.Resume, "resume", false, "resume from the newest checkpoint in -checkpoint-dir")
	fs.DurationVar(&c.Timeout, "timeout", 0, "abort (with checkpoint) after this duration, e.g. 10m (0 = none)")
	c.Knobs = DefaultKnobs()
	fs.Float64Var(&c.Knobs.PrivateFlow, "private-flow", Unset, "private user-flow share in [0,1] (-1 = scenario default)")
	fs.IntVar(&c.Knobs.SmallBuilders, "small-builders", Unset, "long-tail builder population (-1 = scenario default)")
	fs.StringVar(&c.Knobs.RelayOutages, "relay-outages", "", "extra relay outages, RELAY=FROM..TO[,...] ('none' clears the default calendar)")
	fs.StringVar(&c.Knobs.OFACLag, "ofac-lag", "", "OFAC blacklist schedule override, WAVE=+Nd|never|on-time[,...] ('*' = every wave)")
	fs.IntVar(&c.Knobs.Scale, "scale", Unset, "corpus scale factor: multiplies blocks/day, tx volume and builder population (-1 or 1 = calibrated 1×)")
	return c
}

// Context returns a run context cancelled by SIGINT/SIGTERM and, when
// -timeout is set, by the deadline. The returned stop function releases the
// signal handler; a second signal after cancellation kills the process the
// default way, so a stuck run can always be interrupted twice.
func (c *Config) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if c.Timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, c.Timeout)
	return tctx, func() { cancel(); stop() }
}

// Scenario builds the simulation scenario from the config, applying and
// validating the knob overrides. A bad knob value is an error here — before
// any simulation work — never a silently ignored default.
func (c *Config) Scenario() (sim.Scenario, error) {
	sc := sim.DefaultScenario()
	sc.Seed = c.Seed
	sc.BlocksPerDay = c.BlocksPerDay
	sc.CollectWorkers = c.Workers
	if c.Days > 0 {
		sc.End = sc.Start.Add(time.Duration(c.Days) * 24 * time.Hour)
	}
	if err := c.Knobs.Apply(&sc); err != nil {
		return sim.Scenario{}, err
	}
	return sc, nil
}

// Simulate runs the scenario under ctx with the configured durability
// options: day-boundary checkpoints when -checkpoint-dir is set, continuing
// from the newest one when -resume is also given. onDay, when non-nil, is
// called at each simulated day boundary (for progress output).
func (c *Config) Simulate(ctx context.Context, onDay func(day int)) (*sim.Result, error) {
	if c.Resume && c.CheckpointDir == "" {
		return nil, errors.New("-resume requires -checkpoint-dir")
	}
	sc, err := c.Scenario()
	if err != nil {
		return nil, err
	}
	return sim.RunOpts(ctx, sc, sim.RunOptions{
		CheckpointDir: c.CheckpointDir,
		Resume:        c.Resume,
		OnDay:         onDay,
		Workers:       c.SimWorkers,
	})
}

// Analyze runs the analysis engine over a finished simulation with the
// configured worker pool.
func (c *Config) Analyze(res *sim.Result) *core.Analysis {
	a, err := c.AnalyzeContext(context.Background(), res)
	if err != nil {
		// Only reachable through a worker panic, which NewWithContext has
		// already converted to an error naming the shard.
		panic(err)
	}
	return a
}

// AnalyzeContext is Analyze under a context: cancellation stops the
// analysis pools early and a worker panic comes back as an error instead of
// killing the process.
func (c *Config) AnalyzeContext(ctx context.Context, res *sim.Result) (*core.Analysis, error) {
	opts := []core.Option{core.WithBuilderLabels(res.World.BuilderLabels())}
	if c.Workers > 0 {
		opts = append(opts, core.WithWorkers(c.Workers))
	}
	return core.NewWithContext(ctx, res.Dataset, opts...)
}

// EnsureOutDir creates dir if needed and verifies it is writable by
// creating and removing a uniquely named probe file. Called before the
// simulation so a bad output path fails in milliseconds instead of after a
// multi-minute run. The probe name is randomized (os.CreateTemp), so
// concurrent runs sharing an output directory cannot race on it, and a
// failed cleanup is reported rather than silently leaving debris behind.
func EnsureOutDir(dir string) error {
	if dir == "" {
		return errors.New("output directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, ".pbslab-write-probe-*")
	if err != nil {
		return fmt.Errorf("output dir %s is not writable: %w", dir, err)
	}
	probe := f.Name()
	if err := f.Close(); err != nil {
		return fmt.Errorf("close probe in %s: %w", dir, err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("remove probe in %s: %w", dir, err)
	}
	return nil
}
