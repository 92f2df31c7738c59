package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/server"
)

// ServerConfig sizes the serving-layer benchmark: Clients concurrent
// clients each issue Requests queries (a mix of /v1/cell, /v1/row and
// POST /v1/aggregate)
// against an SVDD-compressed phone matrix served by internal/server, once
// with the row cache disabled and once at CacheRows. Cell and row indices
// are Zipf-skewed — decision-support traffic revisits hot customers — which
// is exactly the locality the LRU row cache exploits.
type ServerConfig struct {
	N         int     // phone-dataset customers
	Budget    float64 // SVDD space budget
	CacheRows int     // cache capacity for the cached run
	Clients   int     // concurrent clients
	Requests  int     // requests per client
	Seed      int64
}

// DefaultServerConfig matches results/bench_server.json: phone2000 at a 10%
// budget, 8 clients × 500 requests, 1024-row cache.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{N: 2000, Budget: 0.10, CacheRows: 1024, Clients: 8, Requests: 500, Seed: 1}
}

// ServerLatency summarizes one endpoint's latency distribution (from the
// server's own telemetry histograms).
type ServerLatency struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// ServerRun is one benchmarked server configuration (cache off or on).
type ServerRun struct {
	Label      string                   `json:"label"`
	CacheRows  int                      `json:"cache_rows"`
	Requests   int64                    `json:"requests"`
	Errors     int64                    `json:"errors"`
	Seconds    float64                  `json:"seconds"`
	Throughput float64                  `json:"rps"`
	HitRate    float64                  `json:"cache_hit_rate"`
	URowReads  int64                    `json:"u_row_reads"`
	Endpoints  map[string]ServerLatency `json:"endpoints"`
}

// ServerResult is the harness output; serialized as
// results/bench_server.json by cmd/experiments.
type ServerResult struct {
	N          int         `json:"n"`
	M          int         `json:"m"`
	Budget     float64     `json:"budget"`
	Clients    int         `json:"clients"`
	Requests   int         `json:"requests_per_client"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Runs       []ServerRun `json:"runs"`
}

// BenchServer compresses the phone matrix once, then drives the HTTP
// serving stack with and without the row cache, recording throughput,
// latency quantiles, cache hit rate and U-row disk accesses per run.
func BenchServer(cfg ServerConfig, w io.Writer) (*ServerResult, error) {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	x := Phone(cfg.N)
	st, err := core.Compress(matio.NewMem(x), core.Options{Budget: cfg.Budget, Workers: DefaultWorkers})
	if err != nil {
		return nil, fmt.Errorf("experiments: server: compress: %w", err)
	}
	res := &ServerResult{
		N: x.Rows(), M: x.Cols(), Budget: cfg.Budget,
		Clients: cfg.Clients, Requests: cfg.Requests,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "run\trps\tcell p50 ms\tcell p99 ms\thit rate\tU-row reads")
	for _, run := range []struct {
		label     string
		cacheRows int
	}{
		{"no-cache", 0},
		{fmt.Sprintf("cache-%d", cfg.CacheRows), cfg.CacheRows},
	} {
		r, err := benchServerRun(st, cfg, run.label, run.cacheRows)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *r)
		cell := r.Endpoints["/v1/cell"]
		fmt.Fprintf(tw, "%s\t%.0f\t%.3f\t%.3f\t%.2f\t%d\n",
			r.Label, r.Throughput, cell.P50Ms, cell.P99Ms, r.HitRate, r.URowReads)
	}
	return res, tw.Flush()
}

func benchServerRun(st *core.Store, cfg ServerConfig, label string, cacheRows int) (*ServerRun, error) {
	h := server.NewHandler(st, nil, server.Options{CacheRows: cacheRows})
	ts := httptest.NewServer(h)
	defer ts.Close()

	us := query.UStats(st)
	if us != nil {
		us.Reset()
	}
	n, m := st.Dims()
	var errCount atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Zipf over rows: hot customers get most of the traffic.
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
			client := &http.Client{Timeout: 30 * time.Second}
			for it := 0; it < cfg.Requests; it++ {
				var op loadOp
				switch {
				case it%10 < 6: // 60% single cells
					op = loadOp{method: http.MethodGet,
						path: fmt.Sprintf("/v1/cell?i=%d&j=%d", zipf.Uint64(), rng.Intn(m))}
				case it%10 < 8: // 20% whole rows
					op = loadOp{method: http.MethodGet, path: fmt.Sprintf("/v1/row?i=%d", zipf.Uint64())}
				default: // 20% small aggregates
					lo := rng.Intn(n - 10)
					cl := rng.Intn(m - 10)
					op = loadOp{method: http.MethodPost, path: "/v1/aggregate",
						body: fmt.Sprintf(`{"f":"avg","rows":"%d:%d","cols":"%d:%d"}`, lo, lo+10, cl, cl+10)}
				}
				if err := doOp(client, ts.URL, op); err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(cfg.Seed + int64(c))
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, fmt.Errorf("experiments: server %s: %w", label, err)
	}

	total := int64(cfg.Clients) * int64(cfg.Requests)
	hits, misses, _, _ := h.CacheStats()
	run := &ServerRun{
		Label:      label,
		CacheRows:  cacheRows,
		Requests:   total,
		Errors:     errCount.Load(),
		Seconds:    elapsed.Seconds(),
		Throughput: float64(total) / elapsed.Seconds(),
		Endpoints:  make(map[string]ServerLatency),
	}
	if cacheRows > 0 {
		run.HitRate = float64(hits) / float64(hits+misses)
	}
	if us != nil {
		run.URowReads = us.Snapshot().RowReads
	}
	snap := h.Telemetry().Snapshot()
	for name, ep := range snap.Endpoints {
		if ep.Requests == 0 {
			continue
		}
		run.Endpoints[name] = ServerLatency{
			Count:  ep.Latency.Count,
			MeanMs: ep.Latency.MeanMs,
			P50Ms:  ep.Latency.P50Ms,
			P90Ms:  ep.Latency.P90Ms,
			P99Ms:  ep.Latency.P99Ms,
		}
	}
	return run, nil
}

// WriteJSON writes the result to path, creating parent directories.
func (r *ServerResult) WriteJSON(path string) error {
	return writeResultJSON(r, path)
}
