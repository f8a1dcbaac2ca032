package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/faults"
)

// TestMain gives the test binary the worker re-entry point: when the
// coordinator under test re-execs this binary with the cell environment
// set, MaybeWorker runs the cell and exits before any test would run.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// tinyGrid is a fast but fully wired grid: every cell simulates a couple of
// short days through the real pipeline (sim → analysis → artifacts).
func tinyGrid(name string, seeds ...uint64) *Grid {
	return &Grid{
		Name:         name,
		Seeds:        seeds,
		Days:         2,
		BlocksPerDay: 6,
		Users:        80,
		Validators:   120,
		PrivateFlow:  []float64{0.06, 0.3},
	}
}

func testOpts(t *testing.T) Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Workers:     4,
		MaxAttempts: 3,
		LeaseTTL:    5 * time.Second,
		Heartbeat:   50 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		Executable:  exe,
	}
}

// --- lease edge cases (pure unit tests, no subprocesses) ---

func TestLeaseBeatRejectsStaleAttempt(t *testing.T) {
	now := time.Now()
	l := newLease(2, now)
	if l.beat(1, now.Add(time.Second)) {
		t.Error("beat from attempt 1 accepted by attempt-2 lease")
	}
	if !l.beat(2, now.Add(time.Second)) {
		t.Error("beat from current attempt rejected")
	}
}

func TestLeaseHeartbeatAfterReclaimIgnored(t *testing.T) {
	now := time.Now()
	l := newLease(1, now)
	if !l.reclaim() {
		t.Fatal("first reclaim must win")
	}
	// The heartbeat that was already in the pipe when the watchdog fired:
	// it must not resurrect the lease.
	if l.beat(1, now.Add(time.Millisecond)) {
		t.Error("beat accepted after reclaim")
	}
	if l.expired(now.Add(time.Hour), time.Second) {
		t.Error("reclaimed lease reported expired; reclaim must be terminal")
	}
}

func TestLeaseReclaimIdempotent(t *testing.T) {
	l := newLease(1, time.Now())
	if !l.reclaim() {
		t.Fatal("first reclaim refused")
	}
	if l.reclaim() {
		t.Error("second reclaim also claimed the kill; reclaim must be exactly-once")
	}
}

func TestLeaseExpiry(t *testing.T) {
	now := time.Now()
	l := newLease(1, now)
	if l.expired(now.Add(900*time.Millisecond), time.Second) {
		t.Error("expired before TTL")
	}
	if !l.expired(now.Add(1100*time.Millisecond), time.Second) {
		t.Error("not expired after TTL")
	}
	l.beat(1, now.Add(time.Second))
	if l.expired(now.Add(1900*time.Millisecond), time.Second) {
		t.Error("expired despite fresh heartbeat")
	}
}

func TestOptionsRejectHeartbeatSlowerThanLease(t *testing.T) {
	// -heartbeat >= -lease/2 would reclaim every attempt as hung and
	// quarantine the whole grid; fill must refuse the pair up front.
	for _, hb := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		o := Options{LeaseTTL: 2 * time.Second, Heartbeat: hb}
		if err := o.fill(); err == nil {
			t.Errorf("heartbeat %v against lease 2s accepted; want an error", hb)
		} else if !strings.Contains(err.Error(), "heartbeat") {
			t.Errorf("error %q does not name the heartbeat", err)
		}
	}
	ok := Options{LeaseTTL: 2 * time.Second, Heartbeat: 500 * time.Millisecond}
	if err := ok.fill(); err != nil {
		t.Errorf("heartbeat lease/4 rejected: %v", err)
	}
	def := Options{}
	if err := def.fill(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

// --- journal replay ---

func TestJournalTornFinalLineTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Event: EventGrid, GridName: "g", Fingerprint: "fp"},
		{Event: EventLease, Cell: "c1", Attempt: 1},
		{Event: EventComplete, Cell: "c1", Attempt: 1},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate a coordinator killed mid-append: a torn trailing record.
	f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"seq":4,"event":"lea`)
	f.Close()

	recs, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("torn final line must replay clean: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	st := ReplayState(recs)
	if st.Cells["c1"].Status != StatusCompleted {
		t.Errorf("c1 status %s, want completed", st.Cells["c1"].Status)
	}
	// And appending continues after the torn record's sequence point: the
	// torn tail is truncated, so the new record starts on a clean line.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Event: EventLease, Cell: "c2", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	// The double-crash scenario: a second resume after the post-torn append
	// must replay clean and see the appended record — if the torn bytes were
	// left in place, the append would have concatenated onto them and this
	// replay would fail with a corrupt non-final line.
	recs, err = ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay after post-torn append must be clean: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records after post-torn append, want 4", len(recs))
	}
	if last := recs[3]; last.Event != EventLease || last.Cell != "c2" || last.Seq != 4 {
		t.Errorf("post-torn record replayed as %+v, want lease of c2 at seq 4", last)
	}
}

func TestJournalUnterminatedFinalRecordDropped(t *testing.T) {
	// A crash can tear the write so that exactly the JSON survives without
	// its newline. That record's fsync never confirmed, so it is torn even
	// though it parses — keeping it would make the next append concatenate.
	dir := t.TempDir()
	content := `{"seq":1,"event":"grid","grid_name":"g"}` + "\n" +
		`{"seq":2,"event":"lease","cell":"c1","attempt":1}` // no trailing newline
	if err := os.WriteFile(filepath.Join(dir, JournalName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (unterminated final record dropped)", len(recs))
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Event: EventLease, Cell: "c2", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	recs, err = ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay after append over unterminated tail: %v", err)
	}
	if len(recs) != 2 || recs[1].Cell != "c2" || recs[1].Seq != 2 {
		t.Fatalf("replayed %+v, want grid then lease of c2 at seq 2", recs)
	}
}

func TestJournalCorruptMiddleLineRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalName)
	content := `{"seq":1,"event":"grid"}
not json at all
{"seq":3,"event":"lease","cell":"c1","attempt":1}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(dir); err == nil {
		t.Fatal("corrupt non-final line must be an error, not silently skipped")
	}
}

func TestReplayStateDoubleCompletionIdempotent(t *testing.T) {
	recs := []Record{
		{Event: EventLease, Cell: "c1", Attempt: 1},
		{Event: EventComplete, Cell: "c1", Attempt: 1},
		// A zombie attempt finishing after a reclaim double-reports.
		{Event: EventComplete, Cell: "c1", Attempt: 1},
		// A late quarantine must not demote a completed cell.
		{Event: EventQuarantine, Cell: "c1", Attempt: 1, Cause: "late"},
	}
	st := ReplayState(recs)
	cs := st.Cells["c1"]
	if cs.Status != StatusCompleted {
		t.Errorf("status %s, want completed (double completion + late quarantine must be no-ops)", cs.Status)
	}
}

func TestReplayStateLeaseWithoutOutcomeIsPending(t *testing.T) {
	// The crash window: lease journaled, worker died before any outcome.
	st := ReplayState([]Record{
		{Event: EventGrid, GridName: "g", Fingerprint: "fp"},
		{Event: EventLease, Cell: "c1", Attempt: 1},
	})
	cs := st.Cells["c1"]
	if cs.Status != StatusPending || cs.Attempts != 1 {
		t.Errorf("got status=%s attempts=%d, want pending/1", cs.Status, cs.Attempts)
	}
}

// --- grid expansion ---

func TestGridExpandDeterministicAndValidated(t *testing.T) {
	g := tinyGrid("det", 1, 2)
	g.EPBS = []bool{false, true}
	a, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2*2*2 {
		t.Fatalf("expanded %d cells, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
	}

	bad := tinyGrid("bad", 1)
	bad.PrivateFlow = []float64{1.5}
	if _, err := bad.Expand(); err == nil {
		t.Error("private_flow 1.5 must fail validation at expansion")
	}
	bad2 := tinyGrid("bad2", 1)
	bad2.RelayOutages = []string{"NoSuchRelay=2022-11-01..2022-11-03"}
	if _, err := bad2.Expand(); err == nil {
		t.Error("unknown relay in outage axis must fail validation at expansion")
	}
	if _, err := (&Grid{Name: "empty"}).Expand(); err == nil {
		t.Error("grid without seeds must be rejected")
	}
}

// --- full runs over real subprocesses ---

func runFleet(t *testing.T, dir string, g *Grid, opts Options, resume bool) *Summary {
	t.Helper()
	c, err := NewCoordinator(dir, g, opts, resume)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// readTree returns path→content for every regular file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func journalEvents(t *testing.T, dir string) []Record {
	t.Helper()
	recs, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFleetRunCompletesAndVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("clean", 7)
	sum := runFleet(t, dir, g, testOpts(t), false)
	if sum.Completed != sum.Cells || len(sum.Quarantined) != 0 {
		t.Fatalf("clean run: %d/%d completed, %d quarantined", sum.Completed, sum.Cells, len(sum.Quarantined))
	}
	cells, _ := g.Expand()
	for _, c := range cells {
		if !dirVerifies(filepath.Join(dir, CellsDirName, c.ID)) {
			t.Errorf("cell %s published but does not verify", c.ID)
		}
	}
	if !dirVerifies(sum.MergedDir) {
		t.Error("merged corpus does not verify against its manifest")
	}
	var corpus FleetCorpus
	data, err := os.ReadFile(filepath.Join(sum.MergedDir, FleetFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Cells) != sum.Cells || corpus.Fingerprint != g.Fingerprint() {
		t.Errorf("corpus has %d cells fp=%.8s, want %d fp=%.8s",
			len(corpus.Cells), corpus.Fingerprint, sum.Cells, g.Fingerprint())
	}
	// The private-flow axis must actually move the metric it controls.
	byID := map[string]CellSummary{}
	for _, s := range corpus.Cells {
		byID[s.Cell.ID] = s
	}
	lo, hi := byID["s7-pf0-sb0-lag0-out0-epbs0"], byID["s7-pf1-sb0-lag0-out0-epbs0"]
	if hi.Metrics.PrivateSharePBS <= lo.Metrics.PrivateSharePBS {
		t.Errorf("private flow 0.3 yields private share %.4f <= %.4f at 0.06; knob not reaching the scenario",
			hi.Metrics.PrivateSharePBS, lo.Metrics.PrivateSharePBS)
	}
}

func TestFleetResumeByteIdenticalAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	g := tinyGrid("resume", 11)

	// Reference: one uninterrupted run.
	refDir := t.TempDir()
	runFleet(t, refDir, g, testOpts(t), false)
	refMerged := readTree(t, filepath.Join(refDir, MergedDirName))

	// Interrupted: cancel the coordinator mid-run (as a kill would), then
	// resume the same directory.
	dir := t.TempDir()
	opts := testOpts(t)
	opts.Workers = 1 // serialize so the cancel lands with work still pending
	c, err := NewCoordinator(dir, g, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the first cell has been published.
		for {
			st := ReplayState(journalEventsQuiet(dir))
			for _, cs := range st.Cells {
				if cs.Status == StatusCompleted {
					cancel()
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("interrupted run must report an error")
	}
	cancel()
	st := ReplayState(journalEvents(t, dir))
	completedBefore := map[string]bool{}
	for id, cs := range st.Cells {
		if cs.Status == StatusCompleted {
			completedBefore[id] = true
		}
	}
	if len(completedBefore) == 0 {
		t.Fatal("test setup: kill landed before any cell completed")
	}
	if len(completedBefore) == len(mustExpand(t, g)) {
		t.Fatal("test setup: kill landed after every cell completed; nothing left to resume")
	}

	sum := runFleet(t, dir, g, testOpts(t), true)
	if sum.Completed != sum.Cells {
		t.Fatalf("resume: %d/%d completed", sum.Completed, sum.Cells)
	}
	// Completed cells were not re-leased by the resumed run: their attempt
	// counts are unchanged.
	finalSt := ReplayState(journalEvents(t, dir))
	for id := range completedBefore {
		if finalSt.Cells[id].Attempts != st.Cells[id].Attempts {
			t.Errorf("cell %s re-leased after completion: attempts %d -> %d",
				id, st.Cells[id].Attempts, finalSt.Cells[id].Attempts)
		}
	}
	// The headline guarantee: the resumed run's merged corpus is
	// byte-identical to the uninterrupted run's.
	gotMerged := readTree(t, filepath.Join(dir, MergedDirName))
	if len(gotMerged) != len(refMerged) {
		t.Fatalf("merged trees differ in file count: %d vs %d", len(gotMerged), len(refMerged))
	}
	for name, want := range refMerged {
		if got, ok := gotMerged[name]; !ok {
			t.Errorf("merged corpus missing %s", name)
		} else if got != want {
			t.Errorf("merged file %s differs between resumed and uninterrupted runs", name)
		}
	}
}

func journalEventsQuiet(dir string) []Record {
	recs, _ := ReplayJournal(dir)
	return recs
}

func mustExpand(t *testing.T, g *Grid) []Cell {
	t.Helper()
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestFleetResumeRefusesChangedGrid(t *testing.T) {
	dir := t.TempDir()
	g := tinyGrid("fp", 3)
	if _, err := NewCoordinator(dir, g, testOpts(t), false); err != nil {
		t.Fatal(err)
	}
	changed := tinyGrid("fp", 3, 4)
	if _, err := NewCoordinator(dir, changed, testOpts(t), true); err == nil {
		t.Fatal("resume with a different grid must be refused")
	} else if !strings.Contains(err.Error(), "grid mismatch") {
		t.Fatalf("want grid-mismatch error, got: %v", err)
	}
	// And a fresh (non-resume) open of a journaled directory is refused too.
	if _, err := NewCoordinator(dir, g, testOpts(t), false); err == nil {
		t.Fatal("re-opening a journaled run dir without -resume must be refused")
	}
}

func TestFleetAdoptsCellPublishedButNotJournaled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("adopt", 5)
	g.PrivateFlow = nil // single cell
	runFleet(t, dir, g, testOpts(t), false)

	// Simulate dying between the artifact rename and the journal append:
	// strip every post-lease record, leaving verified artifacts that the
	// journal never acknowledged.
	recs := journalEvents(t, dir)
	var kept []string
	for _, rec := range recs {
		if rec.Event == EventComplete {
			continue
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, string(data))
	}
	if err := os.WriteFile(filepath.Join(dir, JournalName),
		[]byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	merged := readTree(t, filepath.Join(dir, MergedDirName))

	sum := runFleet(t, dir, g, testOpts(t), true)
	if sum.Completed != 1 {
		t.Fatalf("resume completed %d cells, want 1", sum.Completed)
	}
	// The cell was adopted, not re-run: no new lease events appeared.
	leases := 0
	adopted := false
	for _, rec := range journalEvents(t, dir) {
		if rec.Event == EventLease {
			leases++
		}
		if rec.Event == EventComplete && strings.Contains(rec.Cause, "adopted") {
			adopted = true
		}
	}
	if leases != 1 {
		t.Errorf("%d lease events after adoption resume, want the original 1", leases)
	}
	if !adopted {
		t.Error("journal records no adoption for the published-but-unjournaled cell")
	}
	for name, want := range readTree(t, filepath.Join(dir, MergedDirName)) {
		if merged[name] != want {
			t.Errorf("merged file %s changed across adoption resume", name)
		}
	}
}

// TestFleetAdoptionRejectsForeignCellSpec reuses a run directory whose
// journal was removed but whose published cells survive, under a grid with
// different knob values. Cell IDs encode axis indices (s5-pf0-...), so the
// foreign artifacts collide on ID; adoption must compare the recorded cell
// spec and re-run instead of merging another grid's numbers.
func TestFleetAdoptionRejectsForeignCellSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	a := tinyGrid("foreign", 5)
	a.PrivateFlow = []float64{0.06} // single cell: s5-pf0-...
	runFleet(t, dir, a, testOpts(t), false)
	if err := os.Remove(filepath.Join(dir, JournalName)); err != nil {
		t.Fatal(err)
	}

	b := tinyGrid("foreign", 5)
	b.PrivateFlow = []float64{0.3} // same cell ID, different knob value
	sum := runFleet(t, dir, b, testOpts(t), false)
	if sum.Completed != 1 {
		t.Fatalf("completed %d cells, want 1", sum.Completed)
	}
	// The cell was re-run under grid B, not adopted from grid A's leftovers.
	leases, adopted := 0, false
	for _, rec := range journalEvents(t, dir) {
		if rec.Event == EventLease {
			leases++
		}
		if rec.Event == EventComplete && strings.Contains(rec.Cause, "adopted") {
			adopted = true
		}
	}
	if adopted {
		t.Error("foreign artifacts with a different cell spec were adopted")
	}
	if leases == 0 {
		t.Error("no lease recorded; the foreign cell was not re-run")
	}
	cells := mustExpand(t, b)
	sumB, err := readCellSummary(filepath.Join(dir, CellsDirName, cells[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	if sumB.Cell != cells[0] {
		t.Errorf("published cell spec %+v, want grid B's %+v", sumB.Cell, cells[0])
	}
	var corpus FleetCorpus
	data, err := os.ReadFile(filepath.Join(sum.MergedDir, FleetFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Cells) != 1 || corpus.Cells[0].Cell.PrivateFlow != 0.3 {
		t.Errorf("merged corpus carries %+v, want grid B's private_flow 0.3", corpus.Cells)
	}
}

func TestFleetDemotesCorruptPublishedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("demote", 5)
	g.PrivateFlow = nil // single cell
	runFleet(t, dir, g, testOpts(t), false)
	cells := mustExpand(t, g)
	id := cells[0].ID

	// Corrupt the published artifacts behind the journal's back.
	sumPath := filepath.Join(dir, CellsDirName, id, SummaryName)
	if err := os.WriteFile(sumPath, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if dirVerifies(filepath.Join(dir, CellsDirName, id)) {
		t.Fatal("test setup: corruption not detected by VerifyDir")
	}
	sum := runFleet(t, dir, g, testOpts(t), true)
	if sum.Completed != 1 {
		t.Fatalf("resume completed %d, want 1 (corrupt cell re-run)", sum.Completed)
	}
	if !dirVerifies(filepath.Join(dir, CellsDirName, id)) {
		t.Error("re-run cell still does not verify")
	}
}

func TestFleetDoubleCompletionIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("double", 5)
	g.PrivateFlow = nil // single cell
	opts := testOpts(t)
	c, err := NewCoordinator(dir, g, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := c.cells[0].cell.ID
	final := filepath.Join(dir, CellsDirName, id)
	want := readTree(t, final)

	// A zombie attempt delivering the same cell again: stage a second copy
	// and accept it. The established publication must stand untouched and
	// the duplicate must be discarded.
	dup := filepath.Join(dir, WorkDirName, id+".attempt-9")
	if err := os.MkdirAll(dup, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range want {
		path := filepath.Join(dup, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.accept(id, dup); err != nil {
		t.Fatalf("second accept of a completed cell: %v", err)
	}
	if _, err := os.Stat(dup); !os.IsNotExist(err) {
		t.Error("duplicate work dir survived the idempotent accept")
	}
	for name, data := range readTree(t, final) {
		if want[name] != data {
			t.Errorf("published file %s changed across double completion", name)
		}
	}
	// Journal-level idempotence of the same event.
	if err := c.journal.Append(Record{Event: EventComplete, Cell: id, Attempt: 9}); err != nil {
		t.Fatal(err)
	}
	st := ReplayState(journalEvents(t, dir))
	if st.Cells[id].Status != StatusCompleted {
		t.Error("double-journaled completion broke replay")
	}
}

// TestFleetChaos is the make chaos-fleet gate: a seeded mix of mid-cell
// kills, wedges and corrupt output against every first attempt, under which
// every grid cell must still end completed-and-verified — the faults are
// first-attempt-only, so retries always converge — and the merged corpus
// must be byte-identical to an undisturbed run's.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run")
	}
	g := tinyGrid("chaos", 21, 22)

	refDir := t.TempDir()
	runFleet(t, refDir, g, testOpts(t), false)
	refMerged := readTree(t, filepath.Join(refDir, MergedDirName))

	dir := t.TempDir()
	opts := testOpts(t)
	opts.LeaseTTL = 2 * time.Second // wedged workers reclaimed quickly
	opts.WorkerEnv = func(cell Cell, attempt int) []string {
		plan := faults.ProcPlan(99, cell.ID, cell.Slots())
		return []string{faults.ProcEnv + "=" + plan.String()}
	}
	sum := runFleet(t, dir, g, opts, false)

	// The chaos invariant: every cell terminal, nothing in between.
	if sum.Completed+len(sum.Quarantined) != sum.Cells {
		t.Fatalf("%d completed + %d quarantined != %d cells",
			sum.Completed, len(sum.Quarantined), sum.Cells)
	}
	if sum.Completed != sum.Cells {
		t.Fatalf("first-attempt-only faults must converge: %d/%d completed, quarantined: %+v",
			sum.Completed, sum.Cells, sum.Quarantined)
	}
	faulted := 0
	for _, c := range mustExpand(t, g) {
		if faults.ProcPlan(99, c.ID, c.Slots()).Active(1) {
			faulted++
		}
		if !dirVerifies(filepath.Join(dir, CellsDirName, c.ID)) {
			t.Errorf("cell %s does not verify after chaos", c.ID)
		}
	}
	if faulted == 0 {
		t.Fatal("chaos seed injected no faults; test proves nothing")
	}
	st := ReplayState(journalEvents(t, dir))
	retried := 0
	for _, cs := range st.Cells {
		if cs.Fails > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no cell recorded a failure despite injected faults")
	}
	t.Logf("chaos: %d/%d cells faulted, %d recorded failures and recovered",
		faulted, sum.Cells, retried)

	gotMerged := readTree(t, filepath.Join(dir, MergedDirName))
	for name, want := range refMerged {
		if gotMerged[name] != want {
			t.Errorf("merged file %s differs between chaos and undisturbed runs", name)
		}
	}
}

// TestFleetQuarantine drives a cell that fails every attempt (corrupt
// output with no attempt cap) and checks it is quarantined with its cause
// recorded while healthy cells still complete — one poison cell cannot
// wedge the run.
func TestFleetQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("poison", 31)
	cells := mustExpand(t, g)
	poison := cells[0].ID
	opts := testOpts(t)
	opts.MaxAttempts = 2
	opts.WorkerEnv = func(cell Cell, attempt int) []string {
		if cell.ID != poison {
			return nil
		}
		cfg := faults.ProcConfig{CorruptOutput: true, MaxAttempt: 1 << 20}
		return []string{faults.ProcEnv + "=" + cfg.String()}
	}
	sum := runFleet(t, dir, g, opts, false)
	if len(sum.Quarantined) != 1 || sum.Quarantined[0].ID != poison {
		t.Fatalf("quarantined %+v, want exactly [%s]", sum.Quarantined, poison)
	}
	if !strings.Contains(sum.Quarantined[0].Cause, "verification") {
		t.Errorf("quarantine cause %q does not name the verification failure", sum.Quarantined[0].Cause)
	}
	if sum.Completed != sum.Cells-1 {
		t.Errorf("healthy cells: %d/%d completed", sum.Completed, sum.Cells-1)
	}
	// The poison cell is in the corpus's quarantine ledger, not its data.
	var corpus FleetCorpus
	data, err := os.ReadFile(filepath.Join(sum.MergedDir, FleetFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Quarantined) != 1 || corpus.Quarantined[0].ID != poison {
		t.Errorf("corpus quarantine ledger %+v, want [%s]", corpus.Quarantined, poison)
	}
	for _, s := range corpus.Cells {
		if s.Cell.ID == poison {
			t.Error("quarantined cell's data leaked into the merged corpus")
		}
	}
}

// TestFleetUndefinedMetricsComplete runs a one-cell grid whose two days
// see no relay-delivered block, so the relay and builder HHI, censoring
// and private-flow shares have no samples. The cell must complete with
// those metrics listed as undefined (0 in JSON, empty in the CSV) instead
// of failing to encode NaN and being quarantined.
func TestFleetUndefinedMetricsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	g, err := ParseGrid([]byte(`{"name":"nan-summary","seeds":[954734],"days":2,"blocks_per_day":12,"users":120,"validators":150,"small_builders":[40]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t)
	opts.Workers = 1
	sum := runFleet(t, t.TempDir(), g, opts, false)
	if sum.Completed != 1 || len(sum.Quarantined) != 0 {
		t.Fatalf("%d/%d completed, quarantined %+v", sum.Completed, sum.Cells, sum.Quarantined)
	}
	var corpus FleetCorpus
	data, err := os.ReadFile(filepath.Join(sum.MergedDir, FleetFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	m := corpus.Cells[0].Metrics
	want := []string{"relay_hhi", "builder_hhi", "censoring_share", "private_share_pbs"}
	if !slices.Equal(m.Undefined, want) {
		t.Errorf("undefined metrics %q, want %q", m.Undefined, want)
	}
	if m.RelayHHI != 0 || m.BuilderHHI != 0 || m.CensoringShare != 0 || m.PrivateSharePBS != 0 {
		t.Errorf("undefined metrics must read 0: %+v", m)
	}
	csv, err := os.ReadFile(filepath.Join(sum.MergedDir, FleetCSVName))
	if err != nil {
		t.Fatal(err)
	}
	row := strings.Split(strings.Split(strings.TrimSpace(string(csv)), "\n")[1], ",")
	// Columns 10-13 are relay_hhi, builder_hhi, censoring_share and
	// private_share_pbs; pbs_share (9) and delivered_share (14) stay set.
	for i, col := range row[9:] {
		if empty := (i >= 1 && i <= 4); (col == "") != empty {
			t.Errorf("CSV column %d = %q, want empty=%t (row %q)", 9+i, col, empty, row)
		}
	}
}

// TestFleetReclaimsWedgedWorker wedges a worker deterministically (it stops
// heartbeating and blocks forever without exiting) and checks the lease
// deadline reclaims it — process group SIGKILLed, failure journaled as a
// reclaim — and the retried attempt completes.
func TestFleetReclaimsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("wedge", 41)
	g.PrivateFlow = nil // single cell
	opts := testOpts(t)
	opts.LeaseTTL = 1500 * time.Millisecond
	opts.WorkerEnv = func(cell Cell, attempt int) []string {
		cfg := faults.ProcConfig{WedgeAfterSlots: 2, MaxAttempt: 1}
		return []string{faults.ProcEnv + "=" + cfg.String()}
	}
	start := time.Now()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != 1 {
		t.Fatalf("wedged cell not recovered: %+v", sum)
	}
	if elapsed := time.Since(start); elapsed < opts.LeaseTTL {
		t.Errorf("run finished in %v, faster than the lease TTL %v — the wedge cannot have been reclaimed",
			elapsed, opts.LeaseTTL)
	}
	reclaims := 0
	for _, rec := range journalEvents(t, dir) {
		if rec.Event == EventReclaim {
			reclaims++
			if !strings.Contains(rec.Cause, "heartbeat") {
				t.Errorf("reclaim cause %q does not name the heartbeat deadline", rec.Cause)
			}
		}
	}
	if reclaims != 1 {
		t.Errorf("%d reclaim events, want 1", reclaims)
	}
}

// TestFleetGridRoundTrip checks LoadGrid accepts the example shipped in the
// repo and rejects unknown fields.
func TestFleetGridRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	good := `{"name":"t","seeds":[1],"days":2,"blocks_per_day":6,"private_flow":[0.1]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGrid(path); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	bad := `{"name":"t","seeds":[1],"private_flows":[0.1]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGrid(path); err == nil {
		t.Fatal("unknown grid field must be rejected")
	}

	// The worked example shipped in the repo must load and expand.
	g, err := LoadGrid(filepath.Join("..", "..", "examples", "fleet-grid.json"))
	if err != nil {
		t.Fatalf("examples/fleet-grid.json rejected: %v", err)
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*3*2*3*2*2 {
		t.Errorf("example grid expands to %d cells, want 216 (README documents the arithmetic)", len(cells))
	}
	if len(g.Agents) != 2 || g.Agents[0].Addr == "" || g.Agents[0].Capacity < 1 {
		t.Errorf("example grid agents stanza parsed to %+v, want 2 placed agents", g.Agents)
	}
}

// TestGridAgentsStanzaValidated: the agents stanza is validated at parse
// time, and — being infrastructure placement, not experiment identity —
// is excluded from the resume fingerprint, so a grid can move to new
// hosts across a resume.
func TestGridAgentsStanzaValidated(t *testing.T) {
	base := `{"name":"t","seeds":[1],"days":2,"blocks_per_day":6,"private_flow":[0.1]`
	for _, tc := range []struct{ stanza, wantErr string }{
		{`,"agents":[{"addr":"h1:9070","capacity":2}]`, ""},
		{`,"agents":[{"addr":"","capacity":2}]`, "empty addr"},
		{`,"agents":[{"addr":"h1:9070","capacity":1},{"addr":"h1:9070","capacity":2}]`, "duplicate agent address"},
		{`,"agents":[{"addr":"h1:9070","capacity":0}]`, "capacity"},
		{`,"agents":[{"addr":"h1:9070","capacity":1,"rack":"a"}]`, "unknown field"},
	} {
		_, err := ParseGrid([]byte(base + tc.stanza + "}"))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("agents stanza %s rejected: %v", tc.stanza, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("agents stanza %s: err = %v, want containing %q", tc.stanza, err, tc.wantErr)
		}
	}

	with, err := ParseGrid([]byte(base + `,"agents":[{"addr":"h1:9070","capacity":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	without, err := ParseGrid([]byte(base + "}"))
	if err != nil {
		t.Fatal(err)
	}
	if with.Fingerprint() != without.Fingerprint() {
		t.Error("agents stanza changes the grid fingerprint; placement must not block resume")
	}
}

// TestFleetScaleAxisShipsChunkedCorpus drives the PR 7 surface end to end:
// a grid with a scale axis and DumpDataset set has workers emit their
// datasets as chunked day segments under the cell manifest, and the merge
// republishes them — digest-reverified — under datasets/<cellID>/ in the
// merged output, where they open as ordinary chunked corpora.
func TestFleetScaleAxisShipsChunkedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := &Grid{
		Name:         "scaled",
		Seeds:        []uint64{7},
		Days:         2,
		BlocksPerDay: 6,
		Users:        80,
		Validators:   120,
		Scale:        []int{1, 2},
		DumpDataset:  true,
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	for i, want := range []string{"-x1", "-x2"} {
		if !strings.HasSuffix(cells[i].ID, want) {
			t.Fatalf("cell %d id %q lacks scale suffix %q", i, cells[i].ID, want)
		}
	}

	sum := runFleet(t, dir, g, testOpts(t), false)
	if sum.Completed != sum.Cells || len(sum.Quarantined) != 0 {
		t.Fatalf("scaled run: %d/%d completed, %d quarantined", sum.Completed, sum.Cells, len(sum.Quarantined))
	}
	if !dirVerifies(sum.MergedDir) {
		t.Fatal("merged corpus with shipped datasets does not verify against its manifest")
	}

	blocks := map[string]int{}
	days := map[string]int{}
	for _, c := range cells {
		corpusDir := filepath.Join(sum.MergedDir, "datasets", c.ID)
		r, err := dsio.Open(corpusDir)
		if err != nil {
			t.Fatalf("open merged corpus for %s: %v", c.ID, err)
		}
		// The window is not midnight-aligned, so g.Days simulated days can
		// span g.Days+1 calendar day segments; every cell shares the window.
		if got := r.Days(); got < g.Days || got > g.Days+1 {
			t.Errorf("%s: %d day segments for a %d-day window", c.ID, got, g.Days)
		}
		days[c.ID] = r.Days()
		ds, _, err := r.ReadAll()
		if err != nil {
			t.Fatalf("read merged corpus for %s: %v", c.ID, err)
		}
		blocks[c.ID] = len(ds.Blocks)
	}
	// The scale axis must actually reach the scenario: 2× density means
	// 2× the blocks over the same window.
	if days[cells[0].ID] != days[cells[1].ID] {
		t.Errorf("scale changed the window: %d vs %d day segments", days[cells[0].ID], days[cells[1].ID])
	}
	x1, x2 := blocks[cells[0].ID], blocks[cells[1].ID]
	if x2 != 2*x1 {
		t.Errorf("scale axis not reaching the scenario: %d blocks at x2, want %d (2 × %d)", x2, 2*x1, x1)
	}
}

// TestFleetSummaryCountsCellBlocks holds each cell's summary.json to its
// own corpus: the summary's block count must equal the total_blocks of the
// cell's dataset/index.json.
func TestFleetSummaryCountsCellBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet run")
	}
	dir := t.TempDir()
	g := tinyGrid("blocks", 7)
	g.DumpDataset = true
	sum := runFleet(t, dir, g, testOpts(t), false)
	if sum.Completed != sum.Cells || len(sum.Quarantined) != 0 {
		t.Fatalf("run: %d/%d completed, %d quarantined", sum.Completed, sum.Cells, len(sum.Quarantined))
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		cellDir := filepath.Join(dir, CellsDirName, c.ID)
		var s CellSummary
		data, err := os.ReadFile(filepath.Join(cellDir, SummaryName))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		r, err := dsio.Open(cellDir)
		if err != nil {
			t.Fatalf("%s: open cell corpus: %v", c.ID, err)
		}
		if want := r.Index().TotalBlcks; s.Blocks != want || want == 0 {
			t.Errorf("%s: summary.json says %d blocks, the cell's corpus holds %d", c.ID, s.Blocks, want)
		}
	}
}
