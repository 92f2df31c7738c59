package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/cluster"
	"seqstore/internal/core"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/server"
	"seqstore/internal/trace"
)

// ClusterConfig sizes the distributed-tier harness: a proxy over k
// row-sharded store nodes (all in-process, real HTTP on both hops) driven
// by the same mixed point-read/aggregate workload at every shard count,
// with a per-request equivalence pass pinning the scatter/gather invariant
// — merged aggregates bit-identical to a single node, proxy disk-access
// ledger equal to the sum of the per-shard ledgers.
type ClusterConfig struct {
	N      int     // phone-dataset customers
	Budget float64 // SVDD space budget

	Shards   []int // shard counts to sweep (each gets its own proxy + nodes)
	Clients  int   // closed-loop concurrent clients per run
	Requests int   // requests per client per run

	// PointFrac is the fraction of workload requests that are routed point
	// reads (/v1/cell, /v1/row); the rest are scattered aggregates, every
	// fourth of which goes through /v1/aggregate/batch.
	PointFrac float64

	Workers int // per-store-node intra-query workers
	Seed    int64
}

// DefaultClusterConfig matches results/bench_cluster.json: phone2000 at a
// 10% budget, shard counts 1/2/4, 4 clients × 300 requests.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		N: 2000, Budget: 0.10,
		Shards: []int{1, 2, 4}, Clients: 4, Requests: 300,
		PointFrac: 0.5, Workers: 1, Seed: 1,
	}
}

func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.N < 60 {
		cfg.N = 60
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 0.10
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 2, 4}
	}
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.PointFrac < 0 || cfg.PointFrac > 1 {
		cfg.PointFrac = 0.5
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// ClusterRun is one shard count's measured behavior.
type ClusterRun struct {
	Shards  int `json:"shards"`
	Clients int `json:"clients"`

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"rps"`

	// The tentpole invariants, verified query by query before the timed
	// run: every aggregate in the pool (plus one batch) bit-identical to
	// the single-node reference, and every proxy response's
	// X-Cost-Disk-Accesses equal to the sum of the shard ledgers it
	// gathered.
	AggregatesChecked int  `json:"aggregates_checked"`
	BitIdentical      bool `json:"bit_identical"`
	LedgerExact       bool `json:"ledger_exact"`

	Endpoints map[string]LoadLatency `json:"endpoints"`
}

// ClusterResult is the harness output; serialized as
// results/bench_cluster.json by cmd/experiments.
type ClusterResult struct {
	N         int     `json:"n"`
	M         int     `json:"m"`
	Budget    float64 `json:"budget"`
	PointFrac float64 `json:"point_frac"`

	Runs []ClusterRun `json:"runs"`
}

// WriteJSON writes the result to path, creating parent directories.
func (r *ClusterResult) WriteJSON(path string) error {
	return writeResultJSON(r, path)
}

// clusterRecorder sums the disk accesses every store-node response
// reports, so the harness can assert proxy ledger = Σ shard ledgers.
type clusterRecorder struct {
	base http.RoundTripper
	disk atomic.Int64
}

func (rt *clusterRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.base.RoundTrip(req)
	if err == nil {
		if v, perr := strconv.ParseInt(resp.Header.Get(trace.HeaderDiskAccesses), 10, 64); perr == nil {
			rt.disk.Add(v)
		}
	}
	return resp, err
}

// BenchCluster compresses the phone matrix once, then for each shard
// count slices it into contiguous row ranges, serves each slice from its
// own store node, fronts them with a proxy, verifies the scatter/gather
// invariants query by query, and drives a closed-loop mixed workload
// through the proxy to measure throughput and the per-endpoint tail.
func BenchCluster(cfg ClusterConfig, w io.Writer) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	x := Phone(cfg.N)
	full, err := core.Compress(matio.NewMem(x), core.Options{Budget: cfg.Budget, Workers: DefaultWorkers})
	if err != nil {
		return nil, fmt.Errorf("experiments: cluster: compress: %w", err)
	}
	n, m := full.Dims()
	res := &ClusterResult{N: n, M: m, Budget: cfg.Budget, PointFrac: cfg.PointFrac}

	pool := clusterAggPool(n, m)
	// Single-node reference for every pooled query, serial evaluation.
	refs := make([]uint64, len(pool))
	for i, q := range pool {
		v, err := clusterReference(full, q, n, m)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster: reference %q: %w", q.F, err)
		}
		refs[i] = v
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "shards\tclients\trps\tagg p50 ms\tagg p99 ms\tcell p99 ms\tbit-identical\tledger\terrors")
	for _, shards := range cfg.Shards {
		run, err := benchClusterRun(cfg, full, pool, refs, shards)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster: %d shards: %w", shards, err)
		}
		res.Runs = append(res.Runs, *run)
		agg := run.Endpoints["/v1/aggregate"]
		cell := run.Endpoints["/v1/cell"]
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.3f\t%.3f\t%.3f\t%v\t%v\t%d\n",
			run.Shards, run.Clients, run.Throughput,
			agg.P50Ms, agg.P99Ms, cell.P99Ms, run.BitIdentical, run.LedgerExact, run.Errors)
	}
	return res, tw.Flush()
}

// clusterQuery is one pooled aggregate.
type clusterQuery struct {
	F, Rows, Cols string
}

// clusterAggPool builds the recurring aggregate selections: row/column
// windows that straddle shard boundaries at every sweep size.
func clusterAggPool(n, m int) []clusterQuery {
	aggs := []string{"sum", "avg", "min", "max", "stddev", "count"}
	pool := make([]clusterQuery, 0, 8)
	for i := 0; i < 8; i++ {
		lo := (i * n / 10) % (n - n/6)
		cl := (i * m / 9) % (m - m/4)
		pool = append(pool, clusterQuery{
			F:    aggs[i%len(aggs)],
			Rows: fmt.Sprintf("%d:%d", lo, lo+n/6),
			Cols: fmt.Sprintf("%d:%d", cl, cl+m/4),
		})
	}
	// One full-matrix query: every shard contributes everything it has.
	pool = append(pool, clusterQuery{F: "stddev"})
	return pool
}

// clusterReference evaluates one pooled query on the unsplit store.
func clusterReference(full *core.Store, q clusterQuery, n, m int) (uint64, error) {
	agg, err := query.ParseAggregate(q.F)
	if err != nil {
		return 0, err
	}
	rows, err := query.ParseIndexSpec(q.Rows, n)
	if err != nil {
		return 0, err
	}
	cols, err := query.ParseIndexSpec(q.Cols, m)
	if err != nil {
		return 0, err
	}
	v, err := query.EvaluateOpts(full, agg, query.Selection{Rows: rows, Cols: cols},
		query.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	return math.Float64bits(v), nil
}

// clusterAggOp is one pooled query as a POST /v1/aggregate request.
func clusterAggOp(q clusterQuery) loadOp {
	raw, _ := json.Marshal(api.AggregateRequest{F: q.F, Rows: q.Rows, Cols: q.Cols})
	return loadOp{method: http.MethodPost, path: "/v1/aggregate", body: string(raw)}
}

// benchClusterRun stands up one proxy-over-k-nodes cluster, runs the
// equivalence pass, then the timed closed-loop workload.
func benchClusterRun(cfg ClusterConfig, full *core.Store, pool []clusterQuery, refs []uint64, shards int) (*ClusterRun, error) {
	n, m := full.Dims()
	topo := &cluster.Topology{}
	var nodes []*httptest.Server
	defer func() {
		for _, s := range nodes {
			s.Close()
		}
	}()
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		slice, err := full.SliceRows(lo, hi)
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(server.NewHandler(slice, nil, server.Options{QueryWorkers: cfg.Workers}))
		nodes = append(nodes, srv)
		sh := cluster.Shard{Addr: srv.URL, Lo: lo, Hi: hi}
		if s == shards-1 {
			sh.Hi = -1
		}
		topo.Shards = append(topo.Shards, sh)
	}
	rec := &clusterRecorder{base: http.DefaultTransport}
	proxy := cluster.NewWithTopology(topo, cluster.Options{Client: &http.Client{Transport: rec}})
	front := httptest.NewServer(proxy)
	defer front.Close()

	run := &ClusterRun{Shards: shards, Clients: cfg.Clients, BitIdentical: true, LedgerExact: true}

	// Equivalence pass, serial so each request's ledger is attributable:
	// every pooled aggregate through /v1/aggregate, then the whole pool as one
	// batch, each compared bit-for-bit against the single-node reference.
	client := &http.Client{Timeout: 60 * time.Second}
	for i, q := range pool {
		rec.disk.Store(0)
		op := clusterAggOp(q)
		resp, err := client.Post(front.URL+op.path, "application/json", strings.NewReader(op.body))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("agg %q: status %d: %s", q.F, resp.StatusCode, body)
		}
		var ar api.AggregateResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return nil, err
		}
		run.AggregatesChecked++
		if math.Float64bits(api.NumValue(ar.Value, ar.Nonfinite)) != refs[i] {
			run.BitIdentical = false
		}
		hdr, err := strconv.ParseInt(resp.Header.Get(trace.HeaderDiskAccesses), 10, 64)
		if err != nil || hdr != rec.disk.Load() {
			run.LedgerExact = false
		}
	}
	var batch api.BatchAggregateRequest
	for _, q := range pool {
		batch.Queries = append(batch.Queries, api.AggregateRequest{F: q.F, Rows: q.Rows, Cols: q.Cols})
	}
	raw, _ := json.Marshal(batch)
	resp, err := client.Post(front.URL+"/v1/aggregate/batch", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br api.BatchAggregateResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, err
	}
	if len(br.Items) != len(pool) {
		return nil, fmt.Errorf("batch: %d items, want %d", len(br.Items), len(pool))
	}
	for i, item := range br.Items {
		run.AggregatesChecked++
		if item.Status != http.StatusOK ||
			math.Float64bits(api.NumValue(item.Value, item.Nonfinite)) != refs[i] {
			run.BitIdentical = false
		}
	}

	// Timed closed-loop mixed workload.
	total := int64(cfg.Clients) * int64(cfg.Requests)
	var errCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl := &http.Client{Timeout: 60 * time.Second}
			for it := 0; it < cfg.Requests; it++ {
				var op loadOp
				switch {
				case rng.Float64() < cfg.PointFrac:
					if rng.Intn(4) == 0 {
						op = loadOp{method: http.MethodGet, path: fmt.Sprintf("/v1/row?i=%d", rng.Intn(n))}
					} else {
						op = loadOp{method: http.MethodGet,
							path: fmt.Sprintf("/v1/cell?i=%d&j=%d", rng.Intn(n), rng.Intn(m))}
					}
				case it%4 == 0:
					op = loadOp{method: http.MethodPost, path: "/v1/aggregate/batch", body: string(raw)}
				default:
					op = clusterAggOp(pool[rng.Intn(len(pool))])
				}
				if err := doOp(cl, front.URL, op); err != nil {
					errCount.Add(1)
				}
			}
		}(cfg.Seed + int64(shards)*1000 + int64(c))
	}
	wg.Wait()
	elapsed := time.Since(start)

	run.Requests = total
	run.Errors = errCount.Load()
	run.Seconds = elapsed.Seconds()
	run.Throughput = float64(total) / elapsed.Seconds()
	run.Endpoints = make(map[string]LoadLatency)
	for name, ep := range proxy.Telemetry().Snapshot().Endpoints {
		if ep.Requests == 0 {
			continue
		}
		run.Endpoints[name] = LoadLatency{
			Count:  ep.Latency.Count,
			MeanMs: ep.Latency.MeanMs,
			P50Ms:  ep.Latency.P50Ms,
			P99Ms:  ep.Latency.P99Ms,
			P999Ms: ep.Latency.P999Ms,
		}
	}
	if !run.BitIdentical {
		return nil, fmt.Errorf("scatter/gather broke bit-identity at %d shards", shards)
	}
	if !run.LedgerExact {
		return nil, fmt.Errorf("proxy ledger != Σ shard ledgers at %d shards", shards)
	}
	return run, nil
}
