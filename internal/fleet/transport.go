// Transports: where a cell attempt actually runs. The coordinator's
// scheduling, lease, verification and journal logic is transport-blind —
// it hands an Attempt to a Transport and gets back either a staged
// artifact directory or a classified error. LocalTransport is the
// original single-host path (a crash-isolated subprocess of this very
// binary); AgentTransport (agenttransport.go) drives a remote pbsagent
// over HTTP. Both feed the same lease via the beat callback, so a hung
// subprocess and a partitioned agent are reclaimed by the same deadline.

package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"github.com/ethpbs/pbslab/internal/atomicio"
)

// Attempt is one dispatch of one cell.
type Attempt struct {
	Cell Cell
	// Epoch is the 1-based attempt number — the lease fencing key shared
	// with remote agents.
	Epoch int
	// Heartbeat is the period the worker is told to beat at.
	Heartbeat time.Duration
	// CheckpointDir is the cell's persistent checkpoint directory (used by
	// the local transport; agents keep their own checkpoint scratch).
	CheckpointDir string
	// Env is extra worker environment (fault plans).
	Env []string
}

// Transport runs cell attempts somewhere and stages their artifacts.
type Transport interface {
	// Name identifies the transport in journal records and logs
	// ("local", "agent:host:port").
	Name() string
	// Capacity is how many attempts the transport runs concurrently. A
	// slot is busy from dispatch until Run returns: the coordinator
	// verifies and accepts a finished attempt's output after handing its
	// slot to the next one.
	Capacity() int
	// Run executes the attempt, calling beat on every liveness signal,
	// and leaves the attempt's artifact tree in workDir. A nil return
	// means workDir is fully staged — still unverified; the coordinator
	// gates acceptance on its own digest checks. Run must kill or abandon
	// the attempt and return promptly once ctx is cancelled.
	Run(ctx context.Context, a Attempt, workDir string, beat func()) error
}

// ErrUndispatched wraps Run errors meaning the attempt never started
// anywhere: the coordinator re-dispatches the cell without charging a
// failed attempt, because no work was lost and no worker misbehaved.
var ErrUndispatched = errors.New("attempt was not dispatched")

// AttemptError is a classified attempt failure: the cause goes into the
// journal, the stderr tail into quarantine diagnoses.
type AttemptError struct {
	Cause string
	Tail  string
}

func (e *AttemptError) Error() string { return e.Cause }

// LocalTransport runs attempts as crash-isolated subprocesses of
// Executable (whose main must call MaybeWorker first). Each worker gets
// its own process group so a reclaim kill reaps the worker and anything
// it spawned.
type LocalTransport struct {
	Executable string
	// Slots is the concurrent subprocess budget (>= 1).
	Slots int
}

// Name implements Transport.
func (lt *LocalTransport) Name() string { return "local" }

// Capacity implements Transport.
func (lt *LocalTransport) Capacity() int {
	if lt.Slots < 1 {
		return 1
	}
	return lt.Slots
}

// Run implements Transport: exec the worker binary with the cell
// environment, pump its stdout heartbeats into beat, and kill the whole
// process group when ctx is cancelled.
func (lt *LocalTransport) Run(ctx context.Context, a Attempt, workDir string, beat func()) error {
	cellFile := workDir + ".cell.json"
	cellData, err := jsonMarshalIndent(a.Cell)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUndispatched, err)
	}
	if err := atomicio.WriteFile(cellFile, cellData, 0o644); err != nil {
		return fmt.Errorf("%w: %v", ErrUndispatched, err)
	}
	defer os.Remove(cellFile)

	cmd := exec.Command(lt.Executable)
	cmd.Env = append(os.Environ(),
		EnvCellFile+"="+cellFile,
		EnvOutDir+"="+workDir,
		EnvCheckpointDir+"="+a.CheckpointDir,
		EnvAttempt+"="+fmt.Sprint(a.Epoch),
		EnvHeartbeat+"="+a.Heartbeat.String(),
	)
	cmd.Env = append(cmd.Env, a.Env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}

	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUndispatched, err)
	}
	tail := newTailBuffer(4096)
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("%w: start worker: %v", ErrUndispatched, err)
	}
	kill := func() {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}

	// Heartbeat intake: any stdout activity is liveness. A heartbeat that
	// arrives after the lease was reclaimed (pipe buffering, scheduling)
	// is the coordinator's lease logic's problem — beat refuses it there.
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		buf := make([]byte, 256)
		for {
			n, err := stdout.Read(buf)
			if n > 0 {
				beat()
			}
			if err != nil {
				return
			}
		}
	}()
	// Kill on cancellation (reclaim, supersession, or shutdown).
	killDone := make(chan struct{})
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		select {
		case <-ctx.Done():
			kill()
		case <-killDone:
		}
	}()

	waitErr := cmd.Wait()
	close(killDone)
	killWG.Wait()
	<-hbDone

	if ctx.Err() != nil {
		return ctx.Err()
	}
	if waitErr != nil {
		return &AttemptError{Cause: "worker " + waitErr.Error(), Tail: tail.String()}
	}
	return nil
}

// tailBuffer keeps the last cap bytes written — the stderr tail that goes
// into fail and quarantine records.
type tailBuffer struct {
	mu  sync.Mutex
	cap int
	buf []byte
}

func newTailBuffer(capacity int) *tailBuffer {
	return &tailBuffer{cap: capacity}
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.cap {
		t.buf = t.buf[len(t.buf)-t.cap:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
