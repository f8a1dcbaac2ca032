package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// BenchmarkServeLoad quantifies the degradation ladder under synchronized
// request bursts at 1×, 4× and 16× of admission capacity (slots + queue).
//
// The middleware chain is the production one — panic recovery, admission
// control, per-request timeout — but the terminal handler serves its (real)
// artifact bytes after a pinned 2ms service quantum. Pinning the service
// time is what makes the rows interpretable: the live endpoints answer in
// ~0.3ms on an idle machine, fast enough that no in-process client fleet
// can saturate them, and the measured shed rate would be a property of the
// host scheduler rather than of the admission design. With the quantum
// pinned, capacity is exact (slots/2ms), so the expected behaviour is:
// 1× sheds nothing, and 4×/16× serve a full complement of slots+queue per
// burst while shedding the rest with 429/503 + Retry-After.
//
// Reported per row: p50/p99 latency of served responses, served-per-burst,
// served-per-second, and shed rate. The overload contract reads off one
// run: load=16x's shed_rate is the share refused at 16× capacity, and its
// p99_ms over load=1x's is what overload costs the requests it serves.
func BenchmarkServeLoad(b *testing.B) {
	const (
		slots   = 4
		queue   = 4
		service = 2 * time.Millisecond
	)
	s, _ := newTestServer(b, func(c *Config) {
		c.MaxInflight = slots
		c.Queue = queue
		c.QueueWait = 50 * time.Millisecond
	})
	payload, _, ok := s.Store().Current().Artifact("fig04_pbs_share.csv")
	if !ok {
		b.Fatal("fixture artifact missing")
	}
	pinned := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = w.Write(payload)
	})
	chain := s.recoverWrap(s.adm.Wrap(http.TimeoutHandler(pinned, s.cfg.RequestTimeout,
		`{"error":"Service Unavailable","reason":"request timeout"}`)))
	ts := httptest.NewServer(chain)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512}}

	for _, mult := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("load=%dx", mult), func(b *testing.B) {
			clients := (slots + queue) * mult
			var mu sync.Mutex
			var served, shed int
			var latencies []time.Duration

			b.ResetTimer()
			for round := 0; round < b.N; round++ {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						t0 := time.Now()
						resp, err := client.Get(ts.URL)
						if err != nil {
							b.Errorf("transport error under burst: %v", err)
							return
						}
						body, rerr := io.ReadAll(resp.Body)
						resp.Body.Close()
						elapsed := time.Since(t0)
						mu.Lock()
						defer mu.Unlock()
						switch {
						case rerr != nil:
							b.Errorf("torn response body: %v", rerr)
						case resp.StatusCode == http.StatusOK:
							served++
							latencies = append(latencies, elapsed)
							if len(body) != len(payload) {
								b.Errorf("short 200 body: %d of %d bytes", len(body), len(payload))
							}
						case resp.StatusCode == http.StatusTooManyRequests ||
							resp.StatusCode == http.StatusServiceUnavailable:
							shed++
							if resp.Header.Get("Retry-After") == "" {
								b.Error("shed response without Retry-After")
							}
						default:
							b.Errorf("unexpected status %d", resp.StatusCode)
						}
					}()
				}
				close(start)
				wg.Wait()
			}
			b.StopTimer()

			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			quantile := func(q float64) float64 {
				if len(latencies) == 0 {
					return 0
				}
				i := int(q * float64(len(latencies)-1))
				return float64(latencies[i]) / float64(time.Millisecond)
			}
			if mult == 1 && shed > 0 {
				b.Errorf("shed %d requests at 1x capacity; in-capacity load must be served", shed)
			}
			b.ReportMetric(float64(clients), "clients")
			b.ReportMetric(float64(served)/float64(b.N), "served_per_burst")
			b.ReportMetric(quantile(0.50), "p50_ms")
			b.ReportMetric(quantile(0.99), "p99_ms")
			b.ReportMetric(float64(shed)/float64(served+shed), "shed_rate")
			b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "served_per_sec")
		})
	}
}

// BenchmarkServeSustained is the response-cache acceptance benchmark: a
// closed-loop load harness (fixed client count, fixed think time — offered
// load tracks capacity instead of running open-loop ahead of it) sustained
// over a realistic route mix: per-day index queries, figure series, listing
// endpoints and artifact bytes.
//
// Two arms:
//
//   - nocache: the cache disabled — every request recomputes and
//     re-marshals its response. The control.
//   - cached: the production default. Steady-state traffic is ~all hits:
//     one map lookup plus one memcpy per response.
//
// Both arms drive the full production middleware chain
// in-process (recover → admission → timeout → mux → cache): kernel TCP
// would otherwise dominate the numbers and the cache's effect would be
// unmeasurable. Run with the burst baseline in one invocation
// (-bench 'ServeLoad/load=1x|ServeSustained') to read the ratios off one
// run: cached served_per_sec and p99_ms over load=1x's give the sustained
// speedup and tail ratio against the burst baseline, cached over nocache
// served_per_sec gives the cache's own speedup, and hit_rate is per arm.
func BenchmarkServeSustained(b *testing.B) {
	const (
		clients = 32
		think   = time.Millisecond
	)
	routes := []string{
		"/api/v1/meta",
		"/api/v1/figures",
		"/api/v1/figure/fig04_pbs_share",
		"/api/v1/figure/fig06_hhi",
		"/api/v1/day/0",
		"/api/v1/day/1",
		"/api/v1/day/2",
		"/api/v1/artifacts",
		"/artifacts/fig04_pbs_share.csv",
		"/artifacts/fig06_hhi.csv",
	}

	run := func(b *testing.B, reqsPerClient int, do func(path string) (int, int), cacheStats func() CacheStats) {
		var mu sync.Mutex
		var served, failed, bodyBytes int
		var latencies []time.Duration
		before := cacheStats()

		b.ResetTimer()
		for round := 0; round < b.N; round++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					lServed, lFailed, lBytes := 0, 0, 0
					lLat := make([]time.Duration, 0, reqsPerClient)
					for i := 0; i < reqsPerClient; i++ {
						path := routes[(c+i)%len(routes)]
						t0 := time.Now()
						status, n := do(path)
						elapsed := time.Since(t0)
						if status == http.StatusOK {
							lServed++
							lBytes += n
							lLat = append(lLat, elapsed)
						} else {
							lFailed++
						}
						time.Sleep(think)
					}
					mu.Lock()
					served += lServed
					failed += lFailed
					bodyBytes += lBytes
					latencies = append(latencies, lLat...)
					mu.Unlock()
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()

		if failed > 0 {
			b.Errorf("%d of %d closed-loop requests failed", failed, served+failed)
		}
		after := cacheStats()
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		quantile := func(q float64) float64 {
			if len(latencies) == 0 {
				return 0
			}
			return float64(latencies[int(q*float64(len(latencies)-1))]) / float64(time.Millisecond)
		}
		hitRate := 0.0
		dHits := after.Hits - before.Hits
		if dLookups := dHits + (after.Misses - before.Misses); dLookups > 0 {
			hitRate = float64(dHits) / float64(dLookups)
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(clients), "clients")
		b.ReportMetric(float64(served)/secs, "served_per_sec")
		b.ReportMetric(quantile(0.50), "p50_ms")
		b.ReportMetric(quantile(0.99), "p99_ms")
		b.ReportMetric(hitRate, "hit_rate")
		b.ReportMetric(float64(bodyBytes)/(1<<20)/secs, "served_mb_per_sec")
		// Bytes computed by fills vs served from cache hits: the copied-
		// not-recomputed ledger.
		b.ReportMetric(float64(after.FillBytes-before.FillBytes)/(1<<20), "fill_mb")
		b.ReportMetric(float64(after.HitBytes-before.HitBytes)/(1<<20), "hit_mb")
	}

	inProcess := func(h http.Handler) func(path string) (int, int) {
		return func(path string) (int, int) {
			r := httptest.NewRequest(http.MethodGet, path, nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			return w.Code, w.Body.Len()
		}
	}

	b.Run("mode=nocache", func(b *testing.B) {
		s, _ := newTestServer(b, func(c *Config) { c.CacheBytes = -1 })
		// Fewer requests per client: every one recomputes a full response.
		run(b, 40, inProcess(s.Handler()), s.CacheStats)
	})

	b.Run("mode=cached", func(b *testing.B) {
		s, _ := newTestServer(b, nil)
		run(b, 300, inProcess(s.Handler()), s.CacheStats)
	})
}
