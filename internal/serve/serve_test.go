package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
	"github.com/ethpbs/pbslab/internal/types"
)

// The fixture corpus is simulated once per test binary: every test serves
// the same small deterministic world, so artifact bytes are comparable
// across servers, restarts and reloads.
var (
	fixOnce   sync.Once
	fixErr    error
	fixRes    *sim.Result
	fixA      *core.Analysis
	fixCorpus []report.Artifact
)

// fixture returns the fixture's analysis and its chunked corpus, as
// `pbslab -dump-dataset` ships it beside the figures.
func fixture(t testing.TB) (*core.Analysis, []report.Artifact) {
	t.Helper()
	fixOnce.Do(func() {
		sc := sim.DefaultScenario()
		sc.End = sc.Start.Add(3 * 24 * time.Hour)
		sc.BlocksPerDay = 12
		sc.Demand.Users = 80
		sc.Demand.TxPerBlock = sim.Flat(20)
		sc.SmallBuilderCount = 8
		res, err := sim.Run(context.Background(), sc)
		if err != nil {
			fixErr = err
			return
		}
		fixRes = res
		labels := res.World.BuilderLabels()
		fixA = core.New(res.Dataset, core.WithBuilderLabels(labels))
		fixCorpus, fixErr = corpusArtifacts(res.Dataset, labels)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixA, fixCorpus
}

// corpusArtifacts encodes ds in the chunked layout as report artifacts.
func corpusArtifacts(ds *dataset.Dataset, labels map[types.Address]string) ([]report.Artifact, error) {
	files, err := dsio.EncodeChunked(ds, labels)
	if err != nil {
		return nil, err
	}
	arts := make([]report.Artifact, len(files))
	for i, f := range files {
		arts[i] = report.Artifact{Name: f.Name, Data: f.Data}
	}
	return arts, nil
}

// buildDataDir writes a complete verified output directory — all rendered
// artifacts plus the chunked corpus, covered by one manifest — into dir.
func buildDataDir(t testing.TB, dir string, extra ...report.Artifact) {
	t.Helper()
	a, corpus := fixture(t)
	arts := append(append([]report.Artifact(nil), corpus...), extra...)
	if err := report.WriteAllExtraContext(context.Background(), a, dir, arts...); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a server over a fresh fixture directory and mounts
// its full handler chain on an httptest server.
func newTestServer(t testing.TB, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	buildDataDir(t, dir)
	cfg := Config{DataDir: dir, RequestTimeout: 10 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	s := NewServer(cfg)
	if err := s.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t testing.TB, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	status, body, _ := get(t, url)
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: bad JSON (%v): %s", url, err, body)
	}
	return status
}

func TestServeInitRejectsUnverifiableDir(t *testing.T) {
	s := NewServer(Config{DataDir: t.TempDir()})
	if err := s.Init(context.Background()); err == nil {
		t.Fatal("Init accepted an empty directory with no manifest")
	}
	if s.Store().Current() != nil {
		t.Fatal("a snapshot was installed despite the failed load")
	}
}

// TestLoadRefusesDatasetBlob loads a verified directory that ships the
// retired single-blob dataset.gob instead of the chunked corpus: Load must
// refuse it and say how to regenerate it, not serve it without index
// queries.
func TestLoadRefusesDatasetBlob(t *testing.T) {
	a, _ := fixture(t)
	dir := t.TempDir()
	if err := report.WriteAllExtraContext(context.Background(), a, dir,
		report.Artifact{Name: "dataset.gob", Data: []byte("a corpus in the retired format")}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(context.Background(), dir, LoadOptions{})
	if err == nil {
		t.Fatal("Load accepted a directory shipping dataset.gob")
	}
	if !strings.Contains(err.Error(), "pbslab -dump-dataset") {
		t.Fatalf("refusal does not say how to regenerate the corpus: %v", err)
	}
}

func TestServeMetaReportsVerifiedSnapshot(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var meta struct {
		Generation  uint64 `json:"generation"`
		ManifestSum string `json:"manifest_sum"`
		HasDataset  bool   `json:"has_dataset"`
		WindowDays  int    `json:"window_days"`
		Artifacts   int    `json:"artifacts"`
	}
	if status := getJSON(t, ts.URL+"/api/v1/meta", &meta); status != http.StatusOK {
		t.Fatalf("meta status = %d", status)
	}
	if meta.Generation != 1 || !meta.HasDataset || meta.ManifestSum == "" {
		t.Fatalf("unexpected meta: %+v", meta)
	}
	a, corpus := fixture(t)
	if _, days := a.Window(); meta.WindowDays != days {
		t.Fatalf("window_days = %d, want %d", meta.WindowDays, days)
	}
	// 19 rendered artifacts + the chunked corpus files.
	if want := 19 + len(corpus); meta.Artifacts != want {
		t.Fatalf("artifacts = %d, want %d", meta.Artifacts, want)
	}
}

// TestServeArtifactBytesVerifyAgainstDisk is the serving plane's core
// promise: what goes over the wire is byte-identical to what the manifest
// certified on disk, for every artifact.
func TestServeArtifactBytesVerifyAgainstDisk(t *testing.T) {
	s, ts := newTestServer(t, nil)
	snap := s.Store().Current()
	for _, name := range snap.Names() {
		status, body, hdr := get(t, ts.URL+"/artifacts/"+name)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", name, status)
		}
		disk, err := os.ReadFile(filepath.Join(snap.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(disk) {
			t.Errorf("%s: served bytes differ from disk (%d vs %d bytes)", name, len(body), len(disk))
		}
		if hdr.Get("ETag") == "" {
			t.Errorf("%s: missing ETag", name)
		}
		// Conditional refetch with the returned ETag must 304.
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/artifacts/"+name, nil)
		req.Header.Set("If-None-Match", hdr.Get("ETag"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s: conditional GET = %d, want 304", name, resp.StatusCode)
		}
	}
	if status, _, _ := get(t, ts.URL+"/artifacts/no_such_artifact.csv"); status != http.StatusNotFound {
		t.Fatalf("unknown artifact served with status %d", status)
	}
	// Path traversal must not escape the snapshot's artifact table.
	if status, _, _ := get(t, ts.URL+"/artifacts/..%2Fmanifest.json"); status == http.StatusOK {
		t.Fatal("traversal-style artifact name was served")
	}
}

func TestServeFigureQueriesMatchAnalysis(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var list struct {
		HasDataset bool `json:"has_dataset"`
		Figures    []struct {
			Key string `json:"key"`
		} `json:"figures"`
	}
	if status := getJSON(t, ts.URL+"/api/v1/figures", &list); status != http.StatusOK {
		t.Fatalf("figures status = %d", status)
	}
	if !list.HasDataset || len(list.Figures) != len(core.DayFigures) {
		t.Fatalf("figure list: has_dataset=%v n=%d want %d", list.HasDataset, len(list.Figures), len(core.DayFigures))
	}

	a := s.Store().Current().Analysis
	want := a.Figure4PBSShare()
	var fig struct {
		Series map[string]seriesJSON `json:"series"`
	}
	if status := getJSON(t, ts.URL+"/api/v1/figure/fig04_pbs_share", &fig); status != http.StatusOK {
		t.Fatalf("figure status = %d", status)
	}
	got := fig.Series["value"]
	if got.Start != want.Start || len(got.Values) != len(want.Values) {
		t.Fatalf("series shape drifted: got start=%d n=%d, want start=%d n=%d",
			got.Start, len(got.Values), want.Start, len(want.Values))
	}
	for i, p := range got.Values {
		if p == nil {
			continue // NaN → null by design
		}
		if *p != want.Values[i] {
			t.Errorf("day %d: served %v, analysis %v", i, *p, want.Values[i])
		}
	}

	if status, _, _ := get(t, ts.URL+"/api/v1/figure/fig99_nonsense"); status != http.StatusNotFound {
		t.Fatalf("unknown figure: status %d, want 404", status)
	}
}

// TestServeFigureQueriesMatchArtifacts holds the two views of every
// day-indexed figure to each other: /api/v1/figure/{key} carries exactly
// the series of /artifacts/{key}.csv (its header columns, or the one value
// column of a headerless CSV), under the CSV's title, and each day's value
// prints as the CSV's %.6f cell, with an empty cell served as null.
func TestServeFigureQueriesMatchArtifacts(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, f := range core.DayFigures {
		status, csv, _ := get(t, ts.URL+"/artifacts/"+f.Key+".csv")
		if status != http.StatusOK {
			t.Fatalf("%s.csv: status %d", f.Key, status)
		}
		var fig struct {
			Key    string                `json:"key"`
			Title  string                `json:"title"`
			Series map[string]seriesJSON `json:"series"`
		}
		if status := getJSON(t, ts.URL+"/api/v1/figure/"+f.Key, &fig); status != http.StatusOK {
			t.Fatalf("figure %s: status %d", f.Key, status)
		}
		if fig.Key != f.Key {
			t.Errorf("figure %s answered as %q", f.Key, fig.Key)
		}

		names := []string{"value"}
		rows := map[int][]string{}
		title := ""
		for _, line := range strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n") {
			switch {
			case strings.HasPrefix(line, "# Figure "):
				title = line
			case strings.HasPrefix(line, "#"):
			case strings.HasPrefix(line, "day,"):
				names = strings.Split(strings.TrimPrefix(line, "day,"), ",")
			default:
				cells := strings.Split(line, ",")
				day, err := strconv.Atoi(cells[0])
				if err != nil || len(cells) != len(names)+1 {
					t.Fatalf("%s.csv: malformed row %q under columns %v", f.Key, line, names)
				}
				rows[day] = cells[1:]
			}
		}
		if want := fmt.Sprintf("# Figure %d: %s", f.Number, fig.Title); title != want {
			t.Errorf("%s: CSV title %q, query title gives %q", f.Key, title, want)
		}
		if len(fig.Series) != len(names) {
			t.Errorf("%s: query has %d series, CSV columns %v", f.Key, len(fig.Series), names)
		}
		for j, name := range names {
			s, ok := fig.Series[name]
			if !ok {
				t.Errorf("%s: CSV column %q missing from the query", f.Key, name)
				continue
			}
			for i := range s.Values {
				if _, ok := rows[s.Start+i]; !ok {
					t.Errorf("%s/%s: served day %d has no CSV row", f.Key, name, s.Start+i)
				}
			}
			for day, cells := range rows {
				var p *float64
				if i := day - s.Start; i >= 0 && i < len(s.Values) {
					p = s.Values[i]
				}
				switch cell := cells[j]; {
				case cell == "" && p != nil:
					t.Errorf("%s/%s day %d: empty CSV cell served as %v, want null", f.Key, name, day, *p)
				case cell != "" && (p == nil || fmt.Sprintf("%.6f", *p) != cell):
					t.Errorf("%s/%s day %d: CSV %q, served %v", f.Key, name, day, cell, p)
				}
			}
		}
	}
}

func TestServeDayQueryBoundsAndContent(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var day struct {
		Day     int                            `json:"day"`
		Figures map[string]map[string]*float64 `json:"figures"`
	}
	if status := getJSON(t, ts.URL+"/api/v1/day/1", &day); status != http.StatusOK {
		t.Fatalf("day status = %d", status)
	}
	if day.Day != 1 || len(day.Figures) != len(core.DayFigures) {
		t.Fatalf("day payload: day=%d figures=%d want %d", day.Day, len(day.Figures), len(core.DayFigures))
	}
	a := s.Store().Current().Analysis
	want := a.Figure4PBSShare().Day(1)
	got := day.Figures["fig04_pbs_share"]["value"]
	if got == nil || *got != want {
		t.Fatalf("fig04 day 1 = %v, want %v", got, want)
	}

	_, days := a.Window()
	for _, path := range []string{fmt.Sprintf("/api/v1/day/%d", days), "/api/v1/day/-1"} {
		if status, _, _ := get(t, ts.URL+path); status != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, status)
		}
	}
	if status, _, _ := get(t, ts.URL+"/api/v1/day/banana"); status != http.StatusBadRequest {
		t.Fatal("non-integer day not rejected with 400")
	}
}

func TestServeReadyzAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var ready struct {
		Ready bool   `json:"ready"`
		Store Status `json:"store"`
	}
	if status := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusOK {
		t.Fatalf("readyz = %d", status)
	}
	if !ready.Ready || !ready.Store.Serving || ready.Store.Degraded {
		t.Fatalf("unexpected readiness: %+v", ready)
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatal("healthz not OK")
	}
}

// TestServeArtifactOnlyDirServesDownloadsWithoutIndex covers directories
// produced without -dump-dataset: downloads work, index queries 404.
func TestServeArtifactOnlyDirServesDownloadsWithoutIndex(t *testing.T) {
	a, _ := fixture(t)
	dir := t.TempDir()
	if err := report.WriteAllExtraContext(context.Background(), a, dir); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{DataDir: dir})
	if err := s.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := get(t, ts.URL+"/artifacts/fig04_pbs_share.csv"); status != http.StatusOK {
		t.Fatal("artifact download failed on artifact-only dir")
	}
	if status, _, _ := get(t, ts.URL+"/api/v1/day/0"); status != http.StatusNotFound {
		t.Fatal("index query on artifact-only dir should 404")
	}
	var meta struct {
		HasDataset bool `json:"has_dataset"`
	}
	getJSON(t, ts.URL+"/api/v1/meta", &meta)
	if meta.HasDataset {
		t.Fatal("artifact-only dir reported has_dataset=true")
	}
}

// TestServeStatsLedgerBalances sanity-checks the /api/v1/stats ledger after
// a burst of sequential traffic: everything admitted, nothing shed.
func TestServeStatsLedgerBalances(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i := 0; i < 10; i++ {
		get(t, ts.URL+"/api/v1/meta")
	}
	var stats struct {
		Admission AdmissionStats `json:"admission"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Admission.Shed429 != 0 || stats.Admission.Shed503 != 0 {
		t.Fatalf("sequential traffic was shed: %+v", stats.Admission)
	}
	if stats.Admission.Total != stats.Admission.Accepted {
		t.Fatalf("ledger does not balance: %+v", stats.Admission)
	}
	if stats.Admission.Total < 10 {
		t.Fatalf("total %d < 10 issued requests", stats.Admission.Total)
	}
}
