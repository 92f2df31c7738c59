// Package server is the production HTTP serving layer over a compressed
// store: the decision-support front end of the paper's warehouse setting,
// hardened for real traffic. It hosts the /v1 JSON query API (single and
// batch cell/row endpoints, aggregates over index-spec selections,
// axis-label addressing), a sharded LRU row cache in front of
// reconstruction, and a /v1/metrics endpoint exposing per-endpoint latency
// histograms together with the matio disk-access counters — so the paper's
// one-access-per-cell claim is verifiable live under load. Request IDs,
// tracing, cost headers and the request log come from the middleware the
// proxy shares (api.Mux).
//
// The package works on the internal store interfaces (store.Store +
// store.Labels) rather than the public facade, so the experiments harness
// can drive it without an import cycle through the root package.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/ingest"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// DefaultPlanCacheSize is the query-plan cache capacity when
// Options.PlanCacheSize is 0. A plan is a selection's V panel, run schedule
// and column index — small relative to a row cache entry — so the default
// comfortably covers a dashboard's working set.
const DefaultPlanCacheSize = 256

// Options configures a Handler.
type Options struct {
	// CacheRows is the capacity, in rows, of the LRU reconstruction cache
	// fronting /v1/cell, /v1/row and the batch endpoints. 0 disables the
	// cache (every request reconstructs from the compressed form).
	CacheRows int
	// MaxBatchCells bounds one /v1/cells request; 0 means
	// api.DefaultMaxBatchCells.
	MaxBatchCells int
	// MaxBatchRows bounds one /v1/rows request and the documents of one
	// /v1/bulk request; 0 means api.DefaultMaxBatchRows.
	MaxBatchRows int
	// MaxBatchQueries bounds one /v1/aggregate/batch request; 0 means
	// api.DefaultMaxBatchQueries.
	MaxBatchQueries int
	// PlanCacheSize is the capacity, in memoized query plans, of the plan
	// cache fronting /v1/aggregate and /v1/aggregate/batch. 0 selects
	// DefaultPlanCacheSize; negative disables plan caching (every aggregate
	// re-derives its panel and run schedule).
	PlanCacheSize int
	// QueryWorkers shards aggregate evaluation across this many
	// goroutines: 0 means one per CPU, 1 evaluates serially.
	QueryWorkers int
	// Logger receives the structured request log. nil silences request
	// logging (traces and metrics still work).
	Logger *slog.Logger
	// SlowQuery is the latency threshold above which a request is logged at
	// Warn with its full cost ledger; 0 disables the slow-query log.
	SlowQuery time.Duration
	// TraceBuffer is the capacity of the /v1/debug/traces ring; 0 selects
	// trace.DefaultRingSize.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective surfaced through
	// /v1/metrics (JSON and Prometheus) and /v1/healthz; 0 disables SLO
	// reporting. SLOTarget is the fraction of requests that must meet the
	// objective; 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64
}

// Handler is the HTTP query API over one open store. It is safe for
// concurrent use. Create it with NewHandler.
type Handler struct {
	st     store.Store
	labels *store.Labels
	opts   Options

	// writable is non-nil when st is an ingestion tier; it enables
	// /v1/bulk and switches the cost model and gauge plumbing to unwrap
	// the tier's current cold segment dynamically.
	writable *ingest.Tiered

	rowIndex, colIndex map[string]int // label → index; nil when unlabeled

	cache        *rowCache        // nil when disabled
	plans        *query.PlanCache // nil when disabled
	hits, misses *telemetry.Counter
	corruptions  *telemetry.Counter // store reads that surfaced ErrCorrupt

	mux *api.Mux
	tel *telemetry.Registry // the mux's registry
}

// NewHandler builds the HTTP API around an open store and optional axis
// labels.
func NewHandler(st store.Store, labels *store.Labels, opts Options) *Handler {
	if opts.MaxBatchCells <= 0 {
		opts.MaxBatchCells = api.DefaultMaxBatchCells
	}
	if opts.MaxBatchRows <= 0 {
		opts.MaxBatchRows = api.DefaultMaxBatchRows
	}
	if opts.MaxBatchQueries <= 0 {
		opts.MaxBatchQueries = api.DefaultMaxBatchQueries
	}
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = DefaultPlanCacheSize
	}
	h := &Handler{
		st:     st,
		labels: labels,
		opts:   opts,
		mux: api.NewMux(api.MuxConfig{
			Logger:       opts.Logger,
			SlowQuery:    opts.SlowQuery,
			TraceBuffer:  opts.TraceBuffer,
			SLOObjective: opts.SLOObjective,
			SLOTarget:    opts.SLOTarget,
		}),
	}
	h.tel = h.mux.Telemetry()
	if labels != nil {
		h.rowIndex = indexLabels(labels.Rows)
		h.colIndex = indexLabels(labels.Cols)
	}
	h.writable, _ = st.(*ingest.Tiered)
	h.hits = h.tel.Counter("cache_hits")
	h.misses = h.tel.Counter("cache_misses")
	h.corruptions = h.tel.Counter("store_corruptions")
	if opts.CacheRows > 0 {
		h.cache = newRowCache(opts.CacheRows)
		h.cache.instrument(h.tel)
	}
	h.plans = query.NewPlanCache(opts.PlanCacheSize) // nil when size < 0
	if h.writable != nil && (h.cache != nil || h.plans != nil) {
		// Keep the caches coherent with the write path: a compaction
		// changes the folded rows' reconstructions (exact hot values become
		// approximations), a recompression changes every cold row and every
		// plan's V panel. The epoch bumps precede the removals so a
		// reconstruction or plan build in flight across the mutation cannot
		// re-insert pre-mutation state. The plan cache takes a full purge on
		// both hooks — conservative for fold-in (run schedules are
		// selection-pure), required for recompression.
		cache, plans := h.cache, h.plans
		h.writable.SetInvalidationHooks(
			func(rows []int) {
				if cache != nil {
					cache.bumpEpoch()
					for _, i := range rows {
						cache.invalidate(i)
					}
				}
				plans.Invalidate()
			},
			func() {
				if cache != nil {
					cache.bumpEpoch()
					cache.purge()
				}
				plans.Invalidate()
			},
		)
	}
	h.registerGauges()
	get, post := http.MethodGet, http.MethodPost
	h.mux.Handle(get, "/v1/info", h.handleInfo)
	h.mux.Handle(get, "/v1/cell", h.handleCell)
	h.mux.Handle(get, "/v1/cells", h.handleCells)
	h.mux.Handle(get, "/v1/row", h.handleRow)
	h.mux.Handle(get, "/v1/rows", h.handleRows)
	h.mux.Handle(get, "/v1/metrics", h.handleMetrics)
	h.mux.Handle(get, "/v1/healthz", h.handleHealthz)
	h.mux.Handle(post, "/v1/aggregate", h.handleAggregate)
	h.mux.Handle(post, "/v1/aggregate/batch", h.handleAggBatch)
	// Registered even on a read-only store so clients get a clear 403
	// instead of a 404.
	h.mux.Handle(post, "/v1/bulk", h.handleBulk)
	return h
}

// registerGauges wires the store, IO, cache and SVDD counters into the
// registry as collection-time gauges, so the Prometheus rendering covers the
// same ground as the hand-built /metrics JSON body. Monotonic sources get a
// _total suffix (typed counter in the exposition).
func (h *Handler) registerGauges() {
	h.tel.RegisterGauge("store_stored_numbers", func() float64 {
		return float64(h.st.StoredNumbers())
	})
	h.tel.RegisterGauge("store_space_ratio", func() float64 {
		return store.SpaceRatio(h.st)
	})
	if h.cache != nil {
		h.tel.RegisterGauge("cache_occupancy_rows", func() float64 {
			return float64(h.cache.len())
		})
		h.tel.RegisterGauge("cache_capacity_rows", func() float64 {
			return float64(h.cache.capacity())
		})
	}
	if h.plans != nil {
		h.tel.RegisterGauge("plan_cache_hits_total", func() float64 {
			return float64(h.plans.Stats().Hits)
		})
		h.tel.RegisterGauge("plan_cache_misses_total", func() float64 {
			return float64(h.plans.Stats().Misses)
		})
		h.tel.RegisterGauge("plan_cache_evictions_total", func() float64 {
			return float64(h.plans.Stats().Evictions)
		})
		h.tel.RegisterGauge("plan_cache_size", func() float64 {
			return float64(h.plans.Stats().Size)
		})
	}
	// The IO and SVDD gauges re-resolve the cold store on every collection:
	// with a writable tier behind the handler, recompression swaps the cold
	// segment, and a gauge bound to the pointer at startup would freeze.
	if query.UStats(h.coldStore()) != nil {
		h.tel.RegisterGauge("io_row_reads_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.RowReads())
			}
			return 0
		})
		h.tel.RegisterGauge("io_row_writes_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.RowWrites())
			}
			return 0
		})
		h.tel.RegisterGauge("io_passes_total", func() float64 {
			if us := query.UStats(h.coldStore()); us != nil {
				return float64(us.Passes())
			}
			return 0
		})
	}
	if _, ok := h.coldStore().(*core.Store); ok {
		svddStore := func() *core.Store {
			c, _ := h.coldStore().(*core.Store)
			return c
		}
		h.tel.RegisterGauge("svdd_delta_probes_total", func() float64 {
			if c := svddStore(); c != nil {
				probes, _ := c.ProbeStats()
				return float64(probes)
			}
			return 0
		})
		h.tel.RegisterGauge("svdd_bloom_saves_total", func() float64 {
			if c := svddStore(); c != nil {
				_, saves := c.ProbeStats()
				return float64(saves)
			}
			return 0
		})
		h.tel.RegisterGauge("svdd_delta_row_probes_total", func() float64 {
			if c := svddStore(); c != nil {
				return float64(c.RowProbes())
			}
			return 0
		})
		h.tel.RegisterGauge("svdd_zero_hits_total", func() float64 {
			if c := svddStore(); c != nil {
				return float64(c.ZeroHits())
			}
			return 0
		})
	}
	if h.writable != nil {
		h.tel.RegisterGauge("ingest_hot_rows", func() float64 {
			return float64(h.writable.HotRows())
		})
		h.tel.RegisterGauge("ingest_rows_appended_total", func() float64 {
			return float64(h.writable.Stats().Appended)
		})
		h.tel.RegisterGauge("ingest_rows_folded_total", func() float64 {
			return float64(h.writable.Stats().Folded)
		})
		h.tel.RegisterGauge("ingest_wal_bytes", func() float64 {
			return float64(h.writable.Stats().WalBytes)
		})
	}
}

// ServeHTTP dispatches to the instrumented endpoint handlers.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Telemetry exposes the handler's metrics registry (shared with /metrics).
func (h *Handler) Telemetry() *telemetry.Registry { return h.tel }

// CacheStats reports row-cache hit/miss counters and current size.
func (h *Handler) CacheStats() (hits, misses int64, size, capacity int) {
	if h.cache == nil {
		return h.hits.Load(), h.misses.Load(), 0, 0
	}
	return h.hits.Load(), h.misses.Load(), h.cache.len(), h.cache.capacity()
}

// PlanStats reports the query-plan cache's counters; the zero value when
// the plan cache is disabled.
func (h *Handler) PlanStats() query.PlanCacheStats {
	return h.plans.Stats()
}

// --- Read paths (row cache) ------------------------------------------------

// coldStore returns the store whose backing format carries the cost model:
// the tier's current cold segment when the store is writable (it is swapped
// by recompression, so it must be unwrapped per call, never captured),
// otherwise the store itself.
func (h *Handler) coldStore() store.Store {
	if h.writable != nil {
		return h.writable.Cold()
	}
	return h.st
}

// uPageSpan reports the backing pages of U row i for the cost ledger; one
// page per row for stores without a paged U backing.
func (h *Handler) uPageSpan(i int) int {
	switch t := h.coldStore().(type) {
	case *svd.Store:
		return t.UPageSpan(i, i+1)
	case *core.Store:
		return t.Base().UPageSpan(i, i+1)
	}
	return 1
}

// chargeRowRead attributes one row reconstruction — one U-row fetch in the
// paper's block model — to the request's cost ledger. Hot-segment rows are
// served from memory (their durable copy in the WAL is never read on the
// query path), and rows the SVDD store serves from its in-memory zero flag
// (§6.2) are reconstructions without a disk access.
func (h *Handler) chargeRowRead(led *trace.Ledger, i int) {
	led.AddRowsRead(1)
	if h.writable != nil && h.writable.IsHot(i) {
		return
	}
	if c, ok := h.coldStore().(*core.Store); ok && c.IsZeroRow(i) {
		return
	}
	led.AddDiskAccesses(1)
	led.AddPagesTouched(int64(h.uPageSpan(i)))
}

// row returns a reconstruction of row i, serving from the LRU cache when
// enabled, and charges the request's ledger: a cache hit costs zero disk
// accesses; a miss costs exactly one. The returned slice is shared; callers
// must not modify it.
func (h *Handler) row(ctx context.Context, i int) ([]float64, error) {
	led := trace.LedgerFrom(ctx)
	if h.cache == nil {
		row, err := h.st.Row(i, nil)
		if err == nil {
			h.chargeRowRead(led, i)
		}
		return row, err
	}
	if row, ok := h.cache.get(i); ok {
		h.hits.Inc()
		led.CacheHit()
		return row, nil
	}
	h.misses.Inc()
	led.CacheMiss()
	e := h.cache.epochNow() // before the reconstruction, closing the fill/mutation race
	row, err := h.st.Row(i, nil)
	if err != nil {
		return nil, err
	}
	h.chargeRowRead(led, i)
	h.cache.put(i, row, e)
	return row, nil
}

// cell reconstructs cell (i, j). With the cache enabled a miss
// reconstructs and caches the whole row — one U access either way — so
// subsequent cells of the same sequence are free.
func (h *Handler) cell(ctx context.Context, i, j int) (float64, error) {
	if h.cache == nil {
		v, err := h.st.Cell(i, j)
		if err == nil {
			h.chargeRowRead(trace.LedgerFrom(ctx), i)
		}
		return v, err
	}
	_, m := h.st.Dims()
	if j < 0 || j >= m {
		return 0, fmt.Errorf("server: column %d out of range %d (%w)", j, m, seqerr.ErrOutOfRange)
	}
	row, err := h.row(ctx, i)
	if err != nil {
		return 0, err
	}
	return row[j], nil
}

// --- Endpoints -------------------------------------------------------------

func (h *Handler) handleInfo(w http.ResponseWriter, r *http.Request) {
	rows, cols := h.st.Dims()
	body := api.InfoResponse{
		Method:        h.st.Method().String(),
		Rows:          rows,
		Cols:          cols,
		SpaceRatio:    store.SpaceRatio(h.st),
		StoredNumbers: h.st.StoredNumbers(),
		RowLabels:     h.rowIndex != nil,
		ColLabels:     h.colIndex != nil,
		CacheRows:     h.opts.CacheRows,
		Writable:      h.writable != nil,
	}
	if h.writable != nil {
		body.HotRows = h.writable.HotRows()
		body.ColdRows = h.writable.ColdRows()
	}
	api.WriteJSON(w, http.StatusOK, body)
}

func (h *Handler) handleCell(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Label-addressed form: /v1/cell?row=GHI+Inc.&col=We
	if rl, cl := q.Get("row"), q.Get("col"); rl != "" || cl != "" {
		i, j, err := h.resolveLabels(rl, cl)
		if err != nil {
			api.WriteError(w, r, err)
			return
		}
		v, err := h.cell(r.Context(), i, j)
		if err != nil {
			h.fail(w, r, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, cellBody(i, j, rl, cl, v))
		return
	}
	i, err1 := strconv.Atoi(q.Get("i"))
	j, err2 := strconv.Atoi(q.Get("j"))
	if err1 != nil || err2 != nil {
		api.WriteError(w, r, api.Invalidf("cell needs integer i and j (or label row and col) parameters"))
		return
	}
	v, err := h.cell(r.Context(), i, j)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, cellBody(i, j, "", "", v))
}

// cellBody renders one cell lookup result in the shared wire form.
func cellBody(i, j int, rowLabel, colLabel string, v float64) api.CellResponse {
	val, marker := api.Float(v)
	return api.CellResponse{
		I: i, J: j, Row: rowLabel, Col: colLabel,
		Value: val, Nonfinite: marker,
	}
}

// handleCells answers a batch of cell lookups in one request:
// /v1/cells?at=5:100,7:200 (repeated at= parameters also accepted),
// amortizing per-request HTTP overhead across many reconstructions.
func (h *Handler) handleCells(w http.ResponseWriter, r *http.Request) {
	coords, err := api.ParseCells(r.URL.Query()["at"], h.opts.MaxBatchCells)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	cells := make([]api.CellResponse, 0, len(coords))
	for _, c := range coords {
		v, err := h.cell(r.Context(), c[0], c[1])
		if err != nil {
			h.fail(w, r, fmt.Errorf("cell %d:%d: %w", c[0], c[1], err))
			return
		}
		cells = append(cells, cellBody(c[0], c[1], "", "", v))
	}
	api.WriteJSON(w, http.StatusOK, api.CellsResponse{Count: len(cells), Cells: cells})
}

func (h *Handler) handleRow(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.URL.Query().Get("i"))
	if err != nil {
		api.WriteError(w, r, api.Invalidf("row needs an integer i parameter"))
		return
	}
	row, err := h.row(r.Context(), i)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, rowBody(i, row))
}

// rowBody renders one reconstructed row in the shared wire form.
func rowBody(i int, row []float64) api.RowResponse {
	vals, nonfinite := api.RowValues(row)
	return api.RowResponse{I: i, Values: vals, Nonfinite: nonfinite}
}

// handleRows reconstructs a batch of rows: /v1/rows?i=0:8,17 with the
// same index-spec syntax as aggregate selections.
func (h *Handler) handleRows(w http.ResponseWriter, r *http.Request) {
	n, _ := h.st.Dims()
	idx, err := api.ParseRows(r.URL.Query().Get("i"), n, h.opts.MaxBatchRows)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	rows := make([]api.RowResponse, 0, len(idx))
	for _, i := range idx {
		row, err := h.row(r.Context(), i)
		if err != nil {
			h.fail(w, r, fmt.Errorf("row %d: %w", i, err))
			return
		}
		rows = append(rows, rowBody(i, row))
	}
	api.WriteJSON(w, http.StatusOK, api.RowsResponse{Count: len(rows), Rows: rows})
}

// queryOptions is the evaluation configuration shared by every aggregate
// endpoint.
func (h *Handler) queryOptions(ctx context.Context) query.Options {
	return query.Options{Workers: h.opts.QueryWorkers, Ctx: ctx, Plans: h.plans}
}

// handleAggregate is the typed aggregate endpoint: POST /v1/aggregate with
// one AggregateRequest body — the same item schema /v1/aggregate/batch
// takes. With "partial": true the response carries the mergeable partial
// state instead of a value (the scatter/gather form used between proxy and
// store nodes).
func (h *Handler) handleAggregate(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeAggregate(w, r)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	n, m := h.st.Dims()
	pa, err := req.Parse(n, m)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	sp := trace.StartSpan(r.Context(), "evaluate")
	sp.SetAttr("f", pa.F)
	sp.SetAttr("rows", len(pa.Sel.Rows))
	sp.SetAttr("cols", len(pa.Sel.Cols))
	body := api.AggregateResponse{F: pa.F, Rows: len(pa.Sel.Rows), Cols: len(pa.Sel.Cols)}
	if req.Partial {
		p, err := query.EvaluatePartial(h.st, pa.Agg, pa.Sel, h.queryOptions(r.Context()))
		sp.End()
		if err != nil {
			h.fail(w, r, err)
			return
		}
		enc, err := api.EncodePartial(p)
		if err != nil {
			h.fail(w, r, err)
			return
		}
		body.Partial = enc
	} else {
		v, err := query.EvaluateOpts(h.st, pa.Agg, pa.Sel, h.queryOptions(r.Context()))
		sp.End()
		if err != nil {
			h.fail(w, r, err)
			return
		}
		body.Value, body.Nonfinite = api.Float(v)
	}
	if req.Explain {
		body.Explain = h.explainBody(r.Context(), pa)
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// explainBody builds the explain block for an already-executed query: the
// transient plan derivation from query.ExplainQuery (in-memory only — no
// store reads, no plan-cache traffic) joined with the request's executed
// ledger, whose plan_hits/plan_misses reveal how the real evaluation fared
// in the plan cache.
func (h *Handler) explainBody(ctx context.Context, pa api.Aggregate) *api.Explain {
	ex, err := query.ExplainQuery(h.st, pa.Agg, pa.Sel, h.queryOptions(ctx))
	if err != nil {
		// The selection validated when the evaluation ran; a failure here
		// means the store changed shape mid-request — drop the block rather
		// than fail a query that already produced its answer.
		return nil
	}
	cost := trace.LedgerFrom(ctx).Snapshot()
	e := &api.Explain{
		Plan:            ex.Plan,
		Workers:         ex.Workers,
		Cells:           ex.Cells,
		ChunkRows:       ex.ChunkRows,
		Chunks:          ex.Chunks,
		Runs:            ex.Runs,
		CoalescedScans:  ex.CoalescedScans,
		ScanRows:        ex.ScanRows,
		PointRows:       ex.PointRows,
		ZeroRows:        ex.ZeroRows,
		EstRowsRead:     ex.EstRowsRead,
		EstDiskAccesses: ex.EstDiskAccesses,
		EstPagesTouched: ex.EstPagesTouched,
		EstDeltasProbed: ex.EstDeltasProbed,
		Cost:            cost,
	}
	switch {
	case cost.PlanHits > 0:
		e.PlanCache = "hit"
	case cost.PlanMisses > 0:
		e.PlanCache = "miss"
	default:
		e.PlanCache = "uncached"
	}
	return e
}

// handleAggBatch evaluates N aggregates in one request through the
// scan-sharing batch engine: the union of the selections' U rows is
// fetched once and shared across all queries, so overlapping dashboards
// pay for each disk row once instead of once per panel. The request body
// is {"queries":[{"f":"sum","rows":"0:64","cols":"0:24"},...]}; the
// response mirrors the /v1/bulk per-item idiom — one bad query costs
// itself a 400 item without sinking the batch:
// {"took":<ms>,"errors":<bool>,"items":[{"status":200,"f":"sum",...,"value":V},...]}.
func (h *Handler) handleAggBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := api.DecodeBatch(w, r, h.opts.MaxBatchQueries)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}

	n, m := h.st.Dims()
	items := make([]query.BatchItem, len(req.Queries))
	parsed := make([]api.Aggregate, len(req.Queries))
	parseErrs := make([]error, len(req.Queries))
	hadErr := false
	for qi, bq := range req.Queries {
		pa, err := bq.Parse(n, m)
		if err != nil {
			parseErrs[qi], hadErr = err, true
			continue
		}
		parsed[qi] = pa
		items[qi] = query.BatchItem{Agg: pa.Agg, Sel: pa.Sel}
	}

	sp := trace.StartSpan(r.Context(), "evaluate_batch")
	sp.SetAttr("queries", len(items))
	sp.SetAttr("partial", req.Partial)
	out := make([]api.BatchAggregateItem, len(req.Queries))
	render := func(qi int, rerr error, fill func(it *api.BatchAggregateItem) error) {
		if parseErrs[qi] != nil {
			rerr = parseErrs[qi]
		}
		if rerr == nil {
			it := api.BatchAggregateItem{
				Status: http.StatusOK,
				F:      parsed[qi].F,
				Rows:   len(parsed[qi].Sel.Rows),
				Cols:   len(parsed[qi].Sel.Cols),
			}
			rerr = fill(&it)
			if rerr == nil {
				if req.Explain || req.Queries[qi].Explain {
					it.Explain = h.explainBody(r.Context(), parsed[qi])
				}
				out[qi] = it
				return
			}
		}
		hadErr = true
		status, _ := api.Classify(rerr)
		out[qi] = api.BatchAggregateItem{Status: h.accountStatus(status), Error: rerr.Error()}
	}
	if req.Partial {
		// The scatter/gather form: every query returns mergeable partial
		// state through the same scan-sharing pass the value form uses.
		results, err := query.EvaluateBatchPartial(h.st, items, h.queryOptions(r.Context()))
		sp.End()
		if err != nil {
			h.fail(w, r, err)
			return
		}
		for qi := range req.Queries {
			pr := results[qi]
			render(qi, pr.Err, func(it *api.BatchAggregateItem) error {
				enc, err := api.EncodePartial(pr.Partial)
				it.Partial = enc
				return err
			})
		}
	} else {
		results, err := query.EvaluateBatch(h.st, items, h.queryOptions(r.Context()))
		sp.End()
		if err != nil {
			// Only a batch-level failure (context cancellation) lands here;
			// per-query errors come back in results.
			h.fail(w, r, err)
			return
		}
		for qi := range req.Queries {
			v := results[qi].Value
			render(qi, results[qi].Err, func(it *api.BatchAggregateItem) error {
				it.Value, it.Nonfinite = api.Float(v)
				return nil
			})
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BatchAggregateResponse{
		Took:   time.Since(start).Milliseconds(),
		Errors: hadErr,
		Items:  out,
	})
}

// --- Write path ------------------------------------------------------------

// maxBulkLine bounds one NDJSON line of a /v1/bulk body; a longer line is a
// malformed request, not a server fault.
const maxBulkLine = 1 << 20

// handleBulk ingests rows through the NDJSON bulk idiom: optional action
// lines ({"create":{}} or {"index":{}}) interleaved with document lines
// like {"label":"cust-9911","values":[0.4,1.7,...]}. Documents that fail
// validation are rejected per item (status 400) without sinking the rest of
// the request; every accepted document is appended — and fsynced — as ONE
// WAL batch, so an item reporting 201 is durable across any crash. The
// response mirrors the bulk contract:
// {"took":<ms>,"errors":<bool>,"items":[{"create":{"status":201,"row":N}}]}.
//
// Malformed NDJSON (unparseable line, oversized line) fails the whole
// request with 400: unlike a value error in one document, the server cannot
// tell where the next document boundary is. So does a request over its
// bounds — a body past api.MaxBulkBody, or more documents, valid or not,
// than the /v1/rows batch limit — as soon as the scan crosses the bound.
func (h *Handler) handleBulk(w http.ResponseWriter, r *http.Request) {
	if h.writable == nil {
		api.WriteErrorDetail(w, r, http.StatusForbidden, api.ErrorDetail{
			Code:    api.CodeNotWritable,
			Message: "store is read-only: start the server on a writable (tiered) store to enable /v1/bulk",
		})
		return
	}
	start := time.Now()
	_, cols := h.st.Dims()

	var (
		items   []api.BulkItem
		pending []api.BulkDoc // validated documents awaiting the batch append
		slot    []int         // items index for each pending document
		hadErr  bool
	)
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, api.MaxBulkBody))
	sc.Buffer(make([]byte, 0, 64*1024), maxBulkLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			api.WriteError(w, r, api.Invalidf("bulk line %d: malformed JSON: %v", lineNo, err))
			return
		}
		if _, isDoc := obj["values"]; !isDoc {
			_, create := obj["create"]
			_, index := obj["index"]
			if create || index {
				// Action line: accepted and ignored — appending is the only
				// operation, so the action carries no information.
				continue
			}
			api.WriteError(w, r, api.Invalidf("bulk line %d: neither an action ({\"create\":{}}) nor a document with \"values\"", lineNo))
			return
		}
		var d api.BulkDoc
		if err := json.Unmarshal(line, &d); err != nil {
			api.WriteError(w, r, api.Invalidf("bulk line %d: malformed document: %v", lineNo, err))
			return
		}
		if len(items) == h.opts.MaxBatchRows {
			api.WriteError(w, r, api.Invalidf("bulk line %d: batch of more than %d documents exceeds limit %d",
				lineNo, h.opts.MaxBatchRows, h.opts.MaxBatchRows))
			return
		}
		// Per-document validation mirrors AppendBatch's checks, so one bad
		// document costs itself a 400 item instead of failing the batch.
		var reason string
		if len(d.Values) != cols {
			reason = fmt.Sprintf("row has %d values, store has %d columns", len(d.Values), cols)
		} else {
			for _, v := range d.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					reason = "row contains a non-finite value"
					break
				}
			}
		}
		if reason != "" {
			hadErr = true
			items = append(items, api.BulkItem{Create: api.BulkResult{
				Status: http.StatusBadRequest, Label: d.Label, Error: reason,
			}})
			continue
		}
		slot = append(slot, len(items))
		items = append(items, api.BulkItem{}) // filled in after the append
		pending = append(pending, d)
	}
	if err := sc.Err(); err != nil {
		api.WriteError(w, r, api.Invalidf("bulk line %d: %v", lineNo+1, err))
		return
	}
	if len(items) == 0 {
		api.WriteError(w, r, api.Invalidf("bulk body has no documents; send NDJSON lines like {\"label\":\"x\",\"values\":[...]}"))
		return
	}

	if len(pending) > 0 {
		labels := make([]string, len(pending))
		rows := make([][]float64, len(pending))
		for k, d := range pending {
			labels[k] = d.Label
			rows[k] = d.Values
		}
		first, err := h.writable.AppendBatch(r.Context(), labels, rows)
		if err != nil {
			h.fail(w, r, err)
			return
		}
		for k := range pending {
			items[slot[k]].Create = api.BulkResult{
				Status: http.StatusCreated, Row: first + k, Label: pending[k].Label,
			}
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BulkResponse{
		Took:   time.Since(start).Milliseconds(),
		Errors: hadErr,
		Items:  items,
	})
}

// handleMetrics serves the metrics snapshot. The default body is the
// hand-built JSON; ?format=prom renders the same snapshot in Prometheus
// text exposition format 0.0.4 so a stock scraper can ingest it.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := h.tel.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := telemetry.WritePrometheus(w, snap); err != nil {
			// Headers are committed; the scraper sees a truncated body and
			// fails the scrape, which is the correct failure mode.
			trace.LoggerFrom(r.Context()).Error("prometheus render failed", "err", err)
		}
		return
	}
	rows, cols := h.st.Dims()
	hits, misses := h.hits.Load(), h.misses.Load()
	cache := map[string]interface{}{
		"enabled": h.cache != nil,
		"hits":    hits,
		"misses":  misses,
	}
	if h.cache != nil {
		cache["capacity"] = h.cache.capacity()
		cache["size"] = h.cache.len()
		cache["hit_rate"] = telemetry.Rate(hits, misses)
		cache["invalidations"] = h.cache.invalidations.Load()
	}
	planCache := map[string]interface{}{"enabled": h.plans != nil}
	if h.plans != nil {
		ps := h.plans.Stats()
		planCache["hits"] = ps.Hits
		planCache["misses"] = ps.Misses
		planCache["evictions"] = ps.Evictions
		planCache["size"] = ps.Size
		planCache["capacity"] = ps.Capacity
		planCache["epoch"] = h.plans.Epoch()
		planCache["hit_rate"] = telemetry.Rate(ps.Hits, ps.Misses)
	}
	body := map[string]interface{}{
		"uptime_seconds":    snap.UptimeSeconds,
		"endpoints":         snap.Endpoints,
		"cache":             cache,
		"plan_cache":        planCache,
		"gauges":            snap.Gauges,
		"runtime":           snap.Runtime,
		"store_corruptions": h.corruptions.Load(),
		"traces":            h.mux.TraceStats(),
		"store": map[string]interface{}{
			"method":         h.st.Method().String(),
			"rows":           rows,
			"cols":           cols,
			"stored_numbers": h.st.StoredNumbers(),
			"space_ratio":    store.SpaceRatio(h.st),
		},
	}
	// The paper's cost model, live: U-row reads per reconstruction.
	if us := query.UStats(h.coldStore()); us != nil {
		body["io"] = us.Snapshot()
	}
	if c, ok := h.coldStore().(*core.Store); ok {
		probes, saves := c.ProbeStats()
		body["svdd"] = map[string]interface{}{
			"delta_probes":     probes,
			"bloom_saves":      saves,
			"delta_row_probes": c.RowProbes(),
			"zero_hits":        c.ZeroHits(),
		}
	}
	if h.writable != nil {
		body["ingest"] = h.writable.Stats()
	}
	api.WriteJSON(w, http.StatusOK, body)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.HealthzResponse{Status: "ok", SLO: h.mux.SLO()})
}

// --- Helpers ---------------------------------------------------------------

// resolveLabels maps a (row label, column label) pair to indices; an
// unknown label is the client's error.
func (h *Handler) resolveLabels(rowLabel, colLabel string) (i, j int, err error) {
	if h.rowIndex == nil && h.colIndex == nil && h.writable == nil {
		return 0, 0, api.Invalidf("store has no axis labels")
	}
	i, ok := h.rowIndex[rowLabel]
	if !ok && h.writable != nil {
		// Rows appended after startup are not in the static index; the tier
		// tracks labels across both segments.
		i, ok = h.writable.LookupRow(rowLabel)
	}
	if !ok {
		return 0, 0, api.Invalidf("unknown row label %q", rowLabel)
	}
	j, ok = h.colIndex[colLabel]
	if !ok {
		return 0, 0, api.Invalidf("unknown column label %q", colLabel)
	}
	return i, j, nil
}

// indexLabels builds a label → index map; first occurrence wins for
// duplicates, matching the facade's label resolution.
func indexLabels(ss []string) map[string]int {
	if ss == nil {
		return nil
	}
	m := make(map[string]int, len(ss))
	for i, s := range ss {
		if _, dup := m[s]; !dup {
			m[s] = i
		}
	}
	return m
}

// fail classifies err through the shared api taxonomy, accounts
// store-corruption surfacing, and writes the unified error envelope.
func (h *Handler) fail(w http.ResponseWriter, r *http.Request, err error) {
	status, code := api.Classify(err)
	api.WriteErrorDetail(w, r, h.accountStatus(status), api.ErrorDetail{Code: code, Message: err.Error()})
}

// accountStatus is the monitoring side channel of error classification:
// every corruption surfaced to a client increments the store_corruptions
// counter on /metrics, so a damaged store is visible to monitoring even
// while healthy endpoints keep serving.
func (h *Handler) accountStatus(status int) int {
	if status == http.StatusServiceUnavailable {
		h.corruptions.Inc()
	}
	return status
}
