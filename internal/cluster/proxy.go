package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/seqerr"
	"seqstore/internal/telemetry"
)

// DefaultTimeout bounds one store-node exchange; a shard that stays silent
// this long is reported unavailable, never waited on indefinitely.
const DefaultTimeout = 5 * time.Second

// Options configures a Proxy.
type Options struct {
	// Timeout is the per-shard request deadline; 0 means DefaultTimeout.
	Timeout time.Duration
	// HedgeAfter hedges idempotent point reads: when a store node has not
	// answered within this duration, a second identical request races the
	// first and the earlier success wins. 0 disables hedging.
	HedgeAfter time.Duration
	// MaxBatchCells/MaxBatchRows/MaxBatchQueries bound one batched
	// request; 0 selects the api.DefaultMaxBatch* bounds the store nodes
	// default to.
	MaxBatchCells   int
	MaxBatchRows    int
	MaxBatchQueries int
	// Logger receives the structured request log; nil silences it.
	Logger *slog.Logger
	// SlowQuery is the slow-request threshold: requests at least this slow
	// log at Warn with the full cost ledger, the trace id and the winning
	// shard set, so a p99 outlier is greppable end to end. 0 disables.
	SlowQuery time.Duration
	// TraceBuffer is the /v1/debug/traces ring capacity; 0 selects
	// trace.DefaultRingSize.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective surfaced through
	// /v1/metrics and /v1/healthz; 0 disables SLO reporting. SLOTarget is
	// the fraction of requests that must meet the objective; 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64
	// Client overrides the HTTP client used for store-node requests
	// (tests inject httptest transports); nil builds a pooled default.
	Client *http.Client
}

// dims is the proxy's cached view of the global matrix shape, assembled
// from per-shard /v1/info responses. It goes stale when rows are appended
// through the proxy (or the topology is swapped) and is refreshed lazily.
type dims struct {
	n, m  int
	valid bool
}

// Proxy is the stateless distributed front door: it serves the same typed
// /v1 contract as a store node, owns no data, and holds only the topology
// (which rows live where) plus soft state (health, cached dimensions). Any
// number of identical proxies can front the same store nodes.
type Proxy struct {
	opts Options
	path string // topology file; "" when built from an in-memory Topology

	hc  *http.Client
	mux *api.Mux

	mu     sync.RWMutex
	topo   *Topology
	shards []*shardClient
	dims   dims
}

// New builds a proxy over a topology file. The file is re-read (and the
// shard set swapped atomically) by ReloadFile — cmd/seqproxy wires that to
// SIGHUP.
func New(path string, opts Options) (*Proxy, error) {
	topo, err := LoadTopology(path)
	if err != nil {
		return nil, err
	}
	p := NewWithTopology(topo, opts)
	p.path = path
	return p, nil
}

// NewWithTopology builds a proxy over an already validated topology; used
// directly by tests and the in-process experiments harness.
func NewWithTopology(topo *Topology, opts Options) *Proxy {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxBatchCells <= 0 {
		opts.MaxBatchCells = api.DefaultMaxBatchCells
	}
	if opts.MaxBatchRows <= 0 {
		opts.MaxBatchRows = api.DefaultMaxBatchRows
	}
	if opts.MaxBatchQueries <= 0 {
		opts.MaxBatchQueries = api.DefaultMaxBatchQueries
	}
	p := &Proxy{
		opts: opts,
		hc:   opts.Client,
		mux: api.NewMux(api.MuxConfig{
			Logger:       opts.Logger,
			SlowQuery:    opts.SlowQuery,
			TraceBuffer:  opts.TraceBuffer,
			SLOObjective: opts.SLOObjective,
			SLOTarget:    opts.SLOTarget,
		}),
	}
	if p.hc == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 32
		p.hc = &http.Client{Transport: t}
	}
	p.install(topo)

	get, post := http.MethodGet, http.MethodPost
	p.mux.Handle(get, "/v1/info", p.handleInfo)
	p.mux.Handle(get, "/v1/cell", p.handleCell)
	p.mux.Handle(get, "/v1/cells", p.handleCells)
	p.mux.Handle(get, "/v1/row", p.handleRow)
	p.mux.Handle(get, "/v1/rows", p.handleRows)
	p.mux.Handle(get, "/v1/metrics", p.handleMetrics)
	p.mux.Handle(get, "/v1/healthz", p.handleHealthz)
	p.mux.Handle(post, "/v1/aggregate", p.handleAggregate)
	p.mux.Handle(post, "/v1/aggregate/batch", p.handleAggBatch)
	p.mux.Handle(post, "/v1/bulk", p.handleBulk)
	return p
}

// install swaps in a topology and a fresh shard-client set, invalidating
// the cached dimensions. In-flight requests keep the clients they already
// grabbed, so a reload never disturbs them.
func (p *Proxy) install(topo *Topology) {
	shards := make([]*shardClient, len(topo.Shards))
	for s, sh := range topo.Shards {
		shards[s] = newShardClient(s, sh, p.hc, p.opts.Timeout, p.opts.HedgeAfter)
	}
	p.mu.Lock()
	p.topo, p.shards, p.dims = topo, shards, dims{}
	p.mu.Unlock()
}

// Reload swaps the topology (tests and embedders); see ReloadFile for the
// file-backed path.
func (p *Proxy) Reload(topo *Topology) error {
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("cluster: reload: %w", err)
	}
	p.install(topo)
	return nil
}

// ReloadFile re-reads the topology file the proxy was built from. A
// failed load leaves the current topology serving.
func (p *Proxy) ReloadFile() error {
	if p.path == "" {
		return fmt.Errorf("cluster: proxy has no topology file to reload")
	}
	topo, err := LoadTopology(p.path)
	if err != nil {
		return err
	}
	p.install(topo)
	return nil
}

// view snapshots the current topology and shard clients.
func (p *Proxy) view() (*Topology, []*shardClient) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.topo, p.shards
}

// Telemetry exposes the proxy's metrics registry.
func (p *Proxy) Telemetry() *telemetry.Registry { return p.mux.Telemetry() }

// ServeHTTP dispatches to the instrumented endpoint handlers.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// --- Scatter plumbing --------------------------------------------------------

// shardFailure is one store node's failure inside a scattered request.
type shardFailure struct {
	shard int
	addr  string
	err   error
}

// scatter runs fn(s) concurrently for the selected shard indices and
// returns the failures in ascending shard order (deterministic error
// bodies). fn receives the shard client and must do its own result
// placement — results are positional, so no coordination is needed beyond
// the wait.
func scatter(shards []*shardClient, idx []int, fn func(c *shardClient) error) []shardFailure {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []shardFailure
	)
	for _, s := range idx {
		c := shards[s]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(c); err != nil {
				mu.Lock()
				errs = append(errs, shardFailure{shard: c.shard, addr: c.addr, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(errs, func(a, b int) bool { return errs[a].shard < errs[b].shard })
	return errs
}

// allShards returns [0, 1, …, len(shards)−1].
func allShards(shards []*shardClient) []int {
	idx := make([]int, len(shards))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// failScatter writes the error envelope for a scattered request that
// could not complete. Transport-level failures (dead or stalled shards)
// dominate: they yield 503 unavailable with the failing shards detailed.
// When every failure is a remote HTTP error — a store node rejected its
// fragment — the first shard's verdict is propagated verbatim, because the
// shards share one validation and the others would have said the same.
func (p *Proxy) failScatter(w http.ResponseWriter, r *http.Request, fails []shardFailure) {
	details := make([]api.ShardError, len(fails))
	transport := false
	for i, f := range fails {
		details[i] = api.ShardError{Shard: f.shard, Addr: f.addr, Message: f.err.Error()}
		if _, ok := asRemote(f.err); !ok {
			transport = true
		}
	}
	if !transport {
		if re, ok := asRemote(fails[0].err); ok {
			api.WriteErrorDetail(w, r, re.status, api.ErrorDetail{Code: re.code, Message: re.msg, Shards: details})
			return
		}
	}
	api.WriteErrorDetail(w, r, http.StatusServiceUnavailable, api.ErrorDetail{
		Code:    api.CodeUnavailable,
		Message: fmt.Sprintf("%d of %d shards unavailable", len(fails), len(p.shardsNow())),
		Shards:  details,
	})
}

func (p *Proxy) shardsNow() []*shardClient {
	_, shards := p.view()
	return shards
}

// failShard writes the error envelope for a single-shard exchange:
// remote verdicts pass through with their status and code; transport
// failures become 503 unavailable naming the shard.
func (p *Proxy) failShard(w http.ResponseWriter, r *http.Request, c *shardClient, err error) {
	if re, ok := asRemote(err); ok {
		api.WriteErrorDetail(w, r, re.status, api.ErrorDetail{Code: re.code, Message: re.msg})
		return
	}
	api.WriteErrorDetail(w, r, http.StatusServiceUnavailable, api.ErrorDetail{
		Code:    api.CodeUnavailable,
		Message: err.Error(),
		Shards:  []api.ShardError{{Shard: c.shard, Addr: c.addr, Message: err.Error()}},
	})
}

// errNoShard is the verdict on a row no shard's range covers.
func errNoShard(i int) error {
	return fmt.Errorf("row %d is outside every shard's range (%w)", i, seqerr.ErrOutOfRange)
}

// --- Global dimensions -------------------------------------------------------

// globalDims returns the global (n, m), refreshing the cache from the
// shards' /v1/info when stale. The cache invalidates on topology reload
// and on writes through the proxy; rows appended behind the proxy's back
// surface on the next reload or restart.
func (p *Proxy) globalDims(ctx context.Context) (int, int, []shardFailure) {
	p.mu.RLock()
	d, topo, shards := p.dims, p.topo, p.shards
	p.mu.RUnlock()
	if d.valid {
		return d.n, d.m, nil
	}
	infos, fails := p.fetchInfos(ctx, shards)
	if len(fails) > 0 {
		return 0, 0, fails
	}
	n, m, err := composeDims(topo, infos)
	if err != nil {
		return 0, 0, []shardFailure{{shard: -1, addr: "", err: err}}
	}
	p.mu.Lock()
	if p.topo == topo { // don't cache across a concurrent reload
		p.dims = dims{n: n, m: m, valid: true}
	}
	p.mu.Unlock()
	return n, m, nil
}

// fetchInfos gathers every shard's /v1/info concurrently.
func (p *Proxy) fetchInfos(ctx context.Context, shards []*shardClient) ([]api.InfoResponse, []shardFailure) {
	infos := make([]api.InfoResponse, len(shards))
	fails := scatter(shards, allShards(shards), func(c *shardClient) error {
		return c.doJSON(ctx, http.MethodGet, "/v1/info", nil, &infos[c.shard], true)
	})
	if len(fails) > 0 {
		return nil, fails
	}
	return infos, nil
}

// composeDims derives the global shape from per-shard infos, checking
// that the shards actually hold what the topology says they hold: a
// closed range must match its node's row count exactly, column counts
// must agree everywhere. A mismatch means the topology file and the data
// disagree — misrouting territory — so it is an error, not a warning.
func composeDims(topo *Topology, infos []api.InfoResponse) (n, m int, err error) {
	m = infos[0].Cols
	for s, info := range infos {
		sh := topo.Shards[s]
		if info.Cols != m {
			return 0, 0, fmt.Errorf("cluster: shard %d has %d cols, shard 0 has %d", s, info.Cols, m)
		}
		want := sh.Hi - sh.Lo
		if sh.Hi == -1 {
			n = sh.Lo + info.Rows
			continue
		}
		if info.Rows != want {
			return 0, 0, fmt.Errorf("cluster: shard %d holds %d rows, topology assigns [%d, %d)", s, info.Rows, sh.Lo, sh.Hi)
		}
		n = sh.Hi
	}
	return n, m, nil
}

// markDimsStale invalidates the cached global dimensions (rows were
// appended through the proxy).
func (p *Proxy) markDimsStale() {
	p.mu.Lock()
	p.dims.valid = false
	p.mu.Unlock()
}
