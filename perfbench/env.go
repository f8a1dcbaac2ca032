package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is the host and input block every record carries, so two records
// compare only when they were measured on the same kind of host.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   *bool  `json:"git_dirty"`
	// SourceSHA256 digests the module's Go sources, go.mod and the
	// benchmark's own files, identifying the code where no git metadata
	// exists (an exported checkout).
	SourceSHA256 string `json:"source_sha256"`
	CPUModel     string `json:"cpu_model"`
	// HostRefS is a fixed single-thread SHA-256 loop timed at run start:
	// it shows host-speed drift between records and normalises nothing.
	HostRefS float64 `json:"host_ref_s"`
}

func readEnv(root string) env {
	e := env{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    "unknown",
		SourceSHA256: sourceDigest(root),
		CPUModel:     cpuModel(),
		HostRefS:     hostRef().Seconds(),
	}
	// Only a checkout that is itself a repository names a commit; git
	// would otherwise report whichever enclosing repository it finds.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.GitCommit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(out))) > 0
			e.GitDirty = &dirty
		}
	}
	return e
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: the ticks
// the hypervisor stole from this machine and the total of user, nice,
// system, idle, iowait, irq, softirq and steal ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealPct returns a function that, called later, gives the share of the
// machine's CPU time stolen since stealPct was called, in percent (nil
// where /proc/stat is unreadable).
func stealPct() func() *float64 {
	s0, t0, ok0 := cpuTicks()
	return func() *float64 {
		s1, t1, ok1 := cpuTicks()
		if !ok0 || !ok1 || t1 <= t0 {
			return nil
		}
		pct := 100 * float64(s1-s0) / float64(t1-t0)
		return &pct
	}
}

// hostRef hashes a fixed 1 MiB buffer 96 times, chained, on one thread.
func hostRef() time.Duration {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	start := time.Now()
	for i := 0; i < 96; i++ {
		sum := sha256.Sum256(buf)
		copy(buf, sum[:])
	}
	return time.Since(start)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the names and contents of every .go, go.mod and
// run.sh file under root, in sorted order, skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "run.sh" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Runtime counters read at pass boundaries.
const (
	mInUse   = "/memory/classes/heap/objects:bytes"
	mAllocs  = "/gc/heap/allocs:bytes"
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mCycles  = "/gc/cycles/total:gc-cycles"
	mibBytes = 1 << 20
)

// counters is a snapshot of the process's allocation, GC and CPU totals.
type counters struct {
	at      time.Time
	allocs  uint64
	gcCPU   float64
	cycles  uint64
	procCPU time.Duration
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mCycles}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		at:      time.Now(),
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		cycles:  s[2].Value.Uint64(),
		procCPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func allocMB(from, to counters) float64 { return float64(to.allocs-from.allocs) / mibBytes }

// runtimeDelta is the GC and CPU cost of the interval between two reads.
type runtimeDelta struct {
	GCCPUS   float64
	GCCycles float64
	CPUS     float64 // process CPU
	CoreS    float64 // wall × GOMAXPROCS
}

func delta(from, to counters) runtimeDelta {
	return runtimeDelta{
		GCCPUS:   to.gcCPU - from.gcCPU,
		GCCycles: float64(to.cycles - from.cycles),
		CPUS:     (to.procCPU - from.procCPU).Seconds(),
		CoreS:    to.at.Sub(from.at).Seconds() * float64(runtime.GOMAXPROCS(0)),
	}
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.GCCPUS += o.GCCPUS
	d.GCCycles += o.GCCycles
	d.CPUS += o.CPUS
	d.CoreS += o.CoreS
}

// util is the share of the cores' time the process kept busy.
func (d runtimeDelta) util() float64 {
	if d.CoreS <= 0 {
		return 0
	}
	return d.CPUS / d.CoreS
}

// heapWatch samples the Go heap in use — live objects plus dead ones the
// collector has not freed yet — every interval until stop; peak is the
// highest value seen. The live heap the last collection marked would be
// the purer figure, but whether a collection lands inside a short-lived
// peak (the fleet merge holding every cell's segments) is a matter of
// timing, so its maximum jumps between runs; the in-use peak bounds the
// live peak from above and repeats. Sampling reads no seeded state and
// allocates nothing per sample, so it runs in traced and untraced passes
// alike.
type heapWatch struct {
	stopC chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func watchHeap(interval time.Duration) *heapWatch {
	h := &heapWatch{stopC: make(chan struct{})}
	s := []metrics.Sample{{Name: mInUse}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stopC:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapWatch) stop() float64 {
	close(h.stopC)
	h.wg.Wait()
	return float64(h.peak) / mibBytes
}
