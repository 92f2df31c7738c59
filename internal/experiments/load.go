package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/ingest"
	"seqstore/internal/matio"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// LoadConfig sizes the closed-/open-loop load harness. The harness drives
// the full HTTP serving stack (internal/server over an SVDD phone store,
// optionally wrapped in a WAL-backed ingestion tier for the write
// fraction) with a mixed decision-support workload — point lookups
// (/v1/cell, /v1/row), single aggregates (/v1/aggregate), scan-shared batch
// aggregates (/v1/aggregate/batch) and bulk appends (/v1/bulk) — and
// reads p50/p99/p999 back out of the server's own telemetry histograms.
type LoadConfig struct {
	N      int     // phone-dataset customers
	Budget float64 // SVDD space budget

	// Clients is the closed-loop concurrency sweep: one run per entry,
	// each client issuing Requests back-to-back requests.
	Clients  []int
	Requests int

	// OpenRPS and OpenSeconds size the open-loop run: requests are
	// dispatched on a fixed schedule regardless of completion, so queueing
	// delay shows up in the latency tail instead of silently throttling
	// the arrival process (no coordinated omission). 0 disables the run.
	OpenRPS     float64
	OpenSeconds float64

	// WriteFrac is the fraction of operations that are /v1/bulk appends;
	// PointFrac splits the reads between point lookups and aggregates;
	// every BatchEvery-th aggregate goes through /v1/aggregate/batch with
	// BatchSize queries instead of a single /v1/aggregate.
	WriteFrac  float64
	PointFrac  float64
	BatchEvery int
	BatchSize  int

	// ProcsSweep is the GOMAXPROCS sweep for the scaling runs; nil means
	// the unique values of {1, NumCPU}.
	ProcsSweep []int

	Seed int64
}

// DefaultLoadConfig matches results/bench_load.json: phone2000 at a 10%
// budget, closed-loop client sweep 1/2/4/8 × 300 requests, a 400 req/s
// open-loop run, 10% writes, 50/50 point/aggregate reads.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		N: 2000, Budget: 0.10,
		Clients: []int{1, 2, 4, 8}, Requests: 300,
		OpenRPS: 400, OpenSeconds: 3,
		WriteFrac: 0.10, PointFrac: 0.50,
		BatchEvery: 4, BatchSize: 4,
		Seed: 1,
	}
}

func (cfg LoadConfig) withDefaults() LoadConfig {
	if cfg.N < 60 {
		cfg.N = 60
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 0.10
	}
	if len(cfg.Clients) == 0 {
		cfg.Clients = []int{1, 2, 4, 8}
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.BatchEvery < 1 {
		cfg.BatchEvery = 4
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 4
	}
	if len(cfg.ProcsSweep) == 0 {
		cfg.ProcsSweep = []int{1}
		if n := runtime.NumCPU(); n > 1 {
			cfg.ProcsSweep = append(cfg.ProcsSweep, n)
		}
	}
	return cfg
}

// LoadLatency is one endpoint's latency distribution, read from the
// server's telemetry histograms after the run.
type LoadLatency struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// LoadRun is one driven server configuration.
type LoadRun struct {
	Label      string  `json:"label"`
	Mode       string  `json:"mode"` // closed | open
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	OfferedRPS float64 `json:"offered_rps,omitempty"`

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"rps"`

	PlanHits      int64   `json:"plan_hits"`
	PlanMisses    int64   `json:"plan_misses"`
	PlanEvictions int64   `json:"plan_evictions"`
	PlanHitRate   float64 `json:"plan_hit_rate"`

	Endpoints map[string]LoadLatency `json:"endpoints"`
}

// LoadScaling reports the GOMAXPROCS sweep's verdict: the measured
// multi-core speedup, or — on hosts where the sweep degenerates — a note
// documenting the ceiling and why it cannot be higher here.
type LoadScaling struct {
	BaselineProcs int     `json:"baseline_procs"`
	PeakProcs     int     `json:"peak_procs"`
	BaselineRPS   float64 `json:"baseline_rps"`
	PeakRPS       float64 `json:"peak_rps"`
	Speedup       float64 `json:"speedup"`
	Note          string  `json:"note"`
}

// LoadPlanDelta compares aggregate latency with the plan cache disabled
// (every request replans: the perpetual cold case) against a pre-warmed
// cache, on an otherwise identical read-only aggregate workload.
type LoadPlanDelta struct {
	ColdP99Ms      float64 `json:"cold_p99_ms"`
	WarmP99Ms      float64 `json:"warm_p99_ms"`
	ColdMeanMs     float64 `json:"cold_mean_ms"`
	WarmMeanMs     float64 `json:"warm_mean_ms"`
	P99Improvement float64 `json:"p99_improvement_pct"`
	WarmHitRate    float64 `json:"warm_hit_rate"`
}

// LoadResult is the harness output; serialized as results/bench_load.json
// by cmd/experiments.
type LoadResult struct {
	N          int     `json:"n"`
	M          int     `json:"m"`
	Budget     float64 `json:"budget"`
	WriteFrac  float64 `json:"write_frac"`
	PointFrac  float64 `json:"point_frac"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`

	Runs      []LoadRun      `json:"runs"`
	Scaling   *LoadScaling   `json:"scaling"`
	PlanCache *LoadPlanDelta `json:"plan_cache"`
}

// WriteJSON writes the result to path, creating parent directories.
func (r *LoadResult) WriteJSON(path string) error {
	return writeResultJSON(r, path)
}

// BenchLoad compresses the phone matrix once, then drives the serving
// stack through three sweeps: a closed-loop client sweep (throughput vs
// concurrency), a GOMAXPROCS sweep at the largest client count (the
// multi-core scaling claim), and a cold-vs-warm plan-cache pair on a
// read-only aggregate workload. When OpenRPS > 0 a final open-loop run
// measures the latency tail under a fixed offered rate.
func BenchLoad(cfg LoadConfig, w io.Writer) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	x := Phone(cfg.N)
	st, err := core.Compress(matio.NewMem(x), core.Options{Budget: cfg.Budget, Workers: DefaultWorkers})
	if err != nil {
		return nil, fmt.Errorf("experiments: load: compress: %w", err)
	}
	dir, err := os.MkdirTemp("", "seqstore-bench-load")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n, m := st.Dims()
	labels := &store.Labels{Rows: make([]string, n), Cols: loadColLabels(m)}
	lr := &loadRunner{cfg: cfg, st: st, labels: labels, n: n, m: m, dir: dir}

	res := &LoadResult{
		N: n, M: m, Budget: cfg.Budget,
		WriteFrac: cfg.WriteFrac, PointFrac: cfg.PointFrac,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "run\tmode\tprocs\tclients\trps\tagg p50 ms\tagg p99 ms\tagg p999 ms\tplan hit rate\terrors")
	record := func(r *LoadRun) {
		res.Runs = append(res.Runs, *r)
		agg := r.Endpoints["/v1/aggregate"]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%.3f\t%.3f\t%.3f\t%.2f\t%d\n",
			r.Label, r.Mode, r.GoMaxProcs, r.Clients, r.Throughput,
			agg.P50Ms, agg.P99Ms, agg.P999Ms, r.PlanHitRate, r.Errors)
	}

	// Closed-loop client sweep at the host's default GOMAXPROCS.
	for _, clients := range cfg.Clients {
		r, err := lr.run(loadRunSpec{
			label: fmt.Sprintf("closed-c%d", clients), mode: "closed",
			procs: runtime.GOMAXPROCS(0), clients: clients,
		})
		if err != nil {
			return nil, err
		}
		record(r)
	}

	// GOMAXPROCS sweep at the largest client count: the scaling claim.
	maxClients := cfg.Clients[len(cfg.Clients)-1]
	var procRuns []*LoadRun
	for _, procs := range cfg.ProcsSweep {
		r, err := lr.run(loadRunSpec{
			label: fmt.Sprintf("procs-%d", procs), mode: "closed",
			procs: procs, clients: maxClients,
		})
		if err != nil {
			return nil, err
		}
		record(r)
		procRuns = append(procRuns, r)
	}
	res.Scaling = loadScaling(procRuns)

	// Plan-cache pair: read-only aggregate workload, replanning every
	// request vs serving from a pre-warmed cache.
	cold, err := lr.run(loadRunSpec{
		label: "plan-cold", mode: "closed",
		procs: runtime.GOMAXPROCS(0), clients: maxClients,
		aggOnly: true, planCacheSize: -1,
	})
	if err != nil {
		return nil, err
	}
	record(cold)
	warm, err := lr.run(loadRunSpec{
		label: "plan-warm", mode: "closed",
		procs: runtime.GOMAXPROCS(0), clients: maxClients,
		aggOnly: true, prewarm: true,
	})
	if err != nil {
		return nil, err
	}
	record(warm)
	res.PlanCache = loadPlanDelta(cold, warm)

	// Open-loop run: fixed offered rate, queueing visible in the tail.
	if cfg.OpenRPS > 0 && cfg.OpenSeconds > 0 {
		r, err := lr.run(loadRunSpec{
			label: fmt.Sprintf("open-%drps", int(cfg.OpenRPS)), mode: "open",
			procs: runtime.GOMAXPROCS(0), clients: maxClients,
			offeredRPS: cfg.OpenRPS,
		})
		if err != nil {
			return nil, err
		}
		record(r)
	}
	return res, tw.Flush()
}

func loadColLabels(m int) []string {
	cols := make([]string, m)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d", j)
	}
	return cols
}

// loadScaling folds the GOMAXPROCS-sweep runs into the scaling verdict.
func loadScaling(runs []*LoadRun) *LoadScaling {
	if len(runs) == 0 {
		return nil
	}
	base, peak := runs[0], runs[0]
	for _, r := range runs {
		if r.GoMaxProcs < base.GoMaxProcs {
			base = r
		}
		if r.GoMaxProcs > peak.GoMaxProcs {
			peak = r
		}
	}
	s := &LoadScaling{
		BaselineProcs: base.GoMaxProcs, PeakProcs: peak.GoMaxProcs,
		BaselineRPS: base.Throughput, PeakRPS: peak.Throughput,
	}
	if base.Throughput > 0 {
		s.Speedup = peak.Throughput / base.Throughput
	}
	switch {
	case runtime.NumCPU() == 1:
		s.Note = "host has a single CPU (num_cpu=1): the GOMAXPROCS sweep degenerates " +
			"to {1} and the scaling ceiling is 1.0x by construction — no additional " +
			"cores exist for concurrent aggregates to spread over. The >1.5x target " +
			"at N>=4 cores cannot be expressed on this host; rerun `experiments load` " +
			"on a multi-core machine to measure it."
	case s.Speedup >= 1.5:
		s.Note = fmt.Sprintf("%.2fx closed-loop aggregate throughput going from "+
			"GOMAXPROCS=%d to %d.", s.Speedup, s.BaselineProcs, s.PeakProcs)
	default:
		s.Note = fmt.Sprintf("measured %.2fx from GOMAXPROCS=%d to %d — below the "+
			"1.5x target; on small stores the per-request fixed cost (HTTP, JSON, "+
			"scheduling) dominates the scan work that parallelizes.",
			s.Speedup, s.BaselineProcs, s.PeakProcs)
	}
	return s
}

// loadPlanDelta folds the cold/warm pair into the reported p99 margin.
func loadPlanDelta(cold, warm *LoadRun) *LoadPlanDelta {
	cagg, wagg := cold.Endpoints["/v1/aggregate"], warm.Endpoints["/v1/aggregate"]
	d := &LoadPlanDelta{
		ColdP99Ms: cagg.P99Ms, WarmP99Ms: wagg.P99Ms,
		ColdMeanMs: cagg.MeanMs, WarmMeanMs: wagg.MeanMs,
	}
	if cagg.P99Ms > 0 {
		d.P99Improvement = 100 * (cagg.P99Ms - wagg.P99Ms) / cagg.P99Ms
	}
	if t := warm.PlanHits + warm.PlanMisses; t > 0 {
		d.WarmHitRate = float64(warm.PlanHits) / float64(t)
	}
	return d
}

// loadRunSpec selects one run's shape.
type loadRunSpec struct {
	label, mode   string
	procs         int
	clients       int
	offeredRPS    float64
	aggOnly       bool // read-only aggregate workload (plan-cache pair)
	planCacheSize int  // 0 = server default, negative disables
	prewarm       bool // issue each pooled selection once before measuring
}

// loadRunner drives one run per spec against a fresh handler over the
// shared compressed store, so telemetry and plan-cache counters are
// per-run without needing reset support.
type loadRunner struct {
	cfg    LoadConfig
	st     *core.Store
	labels *store.Labels
	n, m   int
	dir    string
	seq    int
}

// loadOp is one prepared request.
type loadOp struct {
	method, path, body string
}

func (lr *loadRunner) run(spec loadRunSpec) (*LoadRun, error) {
	prev := runtime.GOMAXPROCS(spec.procs)
	defer runtime.GOMAXPROCS(prev)
	lr.seq++

	// The write fraction needs a writable tier; it is per-run (fresh WAL,
	// compaction fully disabled — including the close-time drain) so
	// appends never fold into the shared cold store and every run starts
	// from identical state.
	var target store.Store = lr.st
	writable := lr.cfg.WriteFrac > 0 && !spec.aggOnly
	if writable {
		ti, err := ingest.Open(lr.st, lr.labels,
			filepath.Join(lr.dir, fmt.Sprintf("run%d.wal", lr.seq)),
			ingest.Options{CompactAfter: 1 << 30, DisableBackground: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: load %s: %w", spec.label, err)
		}
		defer ti.Close()
		target = ti
	}
	h := server.NewHandler(target, lr.labels, server.Options{
		CacheRows:     1024,
		PlanCacheSize: spec.planCacheSize,
		QueryWorkers:  1, // concurrency comes from clients, not intra-query sharding
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	pools := loadPools{agg: lr.aggPool(), batch: lr.batchPool()}
	if spec.prewarm {
		client := &http.Client{Timeout: 30 * time.Second}
		for _, op := range append(append([]loadOp(nil), pools.agg...), pools.batch...) {
			if err := doOp(client, ts.URL, op); err != nil {
				return nil, fmt.Errorf("experiments: load %s: prewarm: %w", spec.label, err)
			}
		}
	}

	var total int64
	var elapsed time.Duration
	var errCount atomic.Int64
	var firstErr atomic.Value
	fail := func(err error) {
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}

	switch spec.mode {
	case "closed":
		total = int64(spec.clients) * int64(lr.cfg.Requests)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < spec.clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(lr.n-1))
				client := &http.Client{Timeout: 30 * time.Second}
				for it := 0; it < lr.cfg.Requests; it++ {
					op := lr.nextOp(rng, zipf, pools, writable, spec.aggOnly, it)
					if err := doOp(client, ts.URL, op); err != nil {
						fail(err)
					}
				}
			}(lr.cfg.Seed + int64(lr.seq)*1000 + int64(c))
		}
		wg.Wait()
		elapsed = time.Since(start)

	case "open":
		// Fixed arrival schedule: a dispatcher releases one request per
		// tick no matter how the previous ones are doing, so server
		// queueing delay lands in the latency histograms rather than
		// slowing the arrival process down.
		total = int64(spec.offeredRPS * lr.cfg.OpenSeconds)
		if total < 1 {
			total = 1
		}
		interval := time.Duration(float64(time.Second) / spec.offeredRPS)
		rng := rand.New(rand.NewSource(lr.cfg.Seed + int64(lr.seq)*1000))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(lr.n-1))
		client := &http.Client{Timeout: 30 * time.Second}
		var wg sync.WaitGroup
		start := time.Now()
		tick := time.NewTicker(interval)
		for it := int64(0); it < total; it++ {
			op := lr.nextOp(rng, zipf, pools, writable, spec.aggOnly, int(it))
			wg.Add(1)
			go func(op loadOp) {
				defer wg.Done()
				if err := doOp(client, ts.URL, op); err != nil {
					fail(err)
				}
			}(op)
			<-tick.C
		}
		tick.Stop()
		wg.Wait()
		elapsed = time.Since(start)

	default:
		return nil, fmt.Errorf("experiments: load: unknown mode %q", spec.mode)
	}
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, fmt.Errorf("experiments: load %s: %w", spec.label, err)
	}

	ps := h.PlanStats()
	run := &LoadRun{
		Label: spec.label, Mode: spec.mode,
		GoMaxProcs: spec.procs, Clients: spec.clients, OfferedRPS: spec.offeredRPS,
		Requests: total, Errors: errCount.Load(),
		Seconds:    elapsed.Seconds(),
		Throughput: float64(total) / elapsed.Seconds(),
		PlanHits:   ps.Hits, PlanMisses: ps.Misses, PlanEvictions: ps.Evictions,
		Endpoints: make(map[string]LoadLatency),
	}
	if t := ps.Hits + ps.Misses; t > 0 {
		run.PlanHitRate = float64(ps.Hits) / float64(t)
	}
	snap := h.Telemetry().Snapshot()
	for name, ep := range snap.Endpoints {
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
	return run, nil
}

// aggPool builds the recurring aggregate selections: a small pool so the
// workload revisits plans (decision-support dashboards do) and the plan
// cache has something to hit.
func (lr *loadRunner) aggPool() []loadOp {
	aggs := []string{"sum", "avg", "min", "stddev"}
	pool := make([]loadOp, 0, 8)
	for i := 0; i < 8; i++ {
		lo := (i * lr.n / 10) % (lr.n - lr.n/6)
		cl := (i * lr.m / 9) % (lr.m - lr.m/4)
		pool = append(pool, loadOp{
			method: http.MethodPost,
			path:   "/v1/aggregate",
			body: fmt.Sprintf(`{"f":%q,"rows":"%d:%d","cols":"%d:%d"}`,
				aggs[i%len(aggs)], lo, lo+lr.n/6, cl, cl+lr.m/4),
		})
	}
	return pool
}

// loadPools holds the recurring request bodies one run draws from.
type loadPools struct {
	agg   []loadOp
	batch []loadOp
}

// nextOp draws one operation from the configured mix.
func (lr *loadRunner) nextOp(rng *rand.Rand, zipf *rand.Zipf, pools loadPools, writable, aggOnly bool, it int) loadOp {
	if !aggOnly {
		p := rng.Float64()
		if writable && p < lr.cfg.WriteFrac {
			return lr.bulkOp(rng, it)
		}
		if p < lr.cfg.WriteFrac+(1-lr.cfg.WriteFrac)*lr.cfg.PointFrac {
			// Point lookups over Zipf-skewed rows: hot customers dominate.
			if rng.Intn(4) == 0 {
				return loadOp{method: http.MethodGet, path: fmt.Sprintf("/v1/row?i=%d", zipf.Uint64())}
			}
			return loadOp{method: http.MethodGet,
				path: fmt.Sprintf("/v1/cell?i=%d&j=%d", zipf.Uint64(), rng.Intn(lr.m))}
		}
	}
	if it%lr.cfg.BatchEvery == 0 {
		return pools.batch[rng.Intn(len(pools.batch))]
	}
	return pools.agg[rng.Intn(len(pools.agg))]
}

// bulkOp renders one single-document /v1/bulk append.
func (lr *loadRunner) bulkOp(rng *rand.Rand, it int) loadOp {
	vals := make([]string, lr.m)
	base := rng.Float64() * 100
	for j := range vals {
		vals[j] = fmt.Sprintf("%.1f", base+float64(j%7))
	}
	body := fmt.Sprintf(`{"label":"load-%d-%d","values":[%s]}`,
		lr.seq, it, strings.Join(vals, ","))
	return loadOp{method: http.MethodPost, path: "/v1/bulk", body: body + "\n"}
}

// batchPool builds the recurring /v1/aggregate/batch bodies: BatchSize
// overlapping row windows around a handful of fixed loci — a dashboard
// refreshing the same related aggregates, which is both what the
// scan-sharing path targets and what keeps the plan cache warm.
func (lr *loadRunner) batchPool() []loadOp {
	type q struct {
		F    string `json:"f"`
		Rows string `json:"rows"`
		Cols string `json:"cols"`
	}
	aggs := []string{"sum", "avg", "min", "stddev"}
	pool := make([]loadOp, 0, 4)
	for b := 0; b < 4; b++ {
		lo := b * lr.n / 5
		qs := make([]q, lr.cfg.BatchSize)
		for i := range qs {
			// Shifted overlapping row windows around the locus.
			rlo := lo + i*lr.n/64
			if rlo > lr.n-lr.n/8 {
				rlo = lr.n - lr.n/8
			}
			qs[i] = q{
				F:    aggs[i%len(aggs)],
				Rows: fmt.Sprintf("%d:%d", rlo, rlo+lr.n/8),
				Cols: fmt.Sprintf("%d:%d", 0, lr.m/2),
			}
		}
		body, _ := json.Marshal(map[string]interface{}{"queries": qs})
		pool = append(pool, loadOp{
			method: http.MethodPost, path: "/v1/aggregate/batch", body: string(body)})
	}
	return pool
}

// doOp issues one prepared request and drains the response.
func doOp(client *http.Client, baseURL string, op loadOp) error {
	var resp *http.Response
	var err error
	switch op.method {
	case http.MethodPost:
		ctype := "application/json"
		if op.path == "/v1/bulk" {
			ctype = "application/x-ndjson"
		}
		resp, err = client.Post(baseURL+op.path, ctype, strings.NewReader(op.body))
	default:
		resp, err = client.Get(baseURL + op.path)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.method, op.path, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", op.method, op.path, resp.StatusCode)
	}
	return nil
}
