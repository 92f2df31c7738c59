package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/query"
	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// renderSpec renders shard-local row/column indices back into the
// index-spec wire syntax, packing consecutive runs into lo:hi ranges.
// Order and duplicates survive the round trip, so the fragment a store
// node parses is exactly the multiset SplitSelection produced.
func renderSpec(idx []int) string {
	var b strings.Builder
	for run := 0; run < len(idx); {
		end := run + 1
		for end < len(idx) && idx[end] == idx[end-1]+1 {
			end++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if end-run >= 2 {
			fmt.Fprintf(&b, "%d:%d", idx[run], idx[end-1]+1)
		} else {
			fmt.Fprintf(&b, "%d", idx[run])
		}
		run = end
	}
	return b.String()
}

// --- Info, health, metrics ---------------------------------------------------

// handleInfo composes the cluster-wide /v1/info from live per-shard
// infos: global dimensions, summed stored numbers, a row-weighted space
// ratio, and the shard map itself.
func (p *Proxy) handleInfo(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	infos, fails := p.fetchInfos(r.Context(), shards)
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	n, m, err := composeDims(topo, infos)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	body := api.InfoResponse{
		Method:    infos[0].Method,
		Rows:      n,
		Cols:      m,
		RowLabels: true,
		ColLabels: true,
		Shards:    make([]api.ShardInfo, len(shards)),
	}
	var weighted float64
	for s, info := range infos {
		if info.Method != body.Method {
			body.Method = "mixed"
		}
		body.StoredNumbers += info.StoredNumbers
		body.RowLabels = body.RowLabels && info.RowLabels
		body.ColLabels = body.ColLabels && info.ColLabels
		body.Writable = body.Writable || info.Writable
		weighted += info.SpaceRatio * float64(info.Rows)
		body.Shards[s] = api.ShardInfo{
			Shard: s,
			Addr:  topo.Shards[s].Addr,
			Lo:    topo.Shards[s].Lo,
			Hi:    topo.Shards[s].Hi,
			Rows:  info.Rows,
		}
	}
	if n > 0 {
		body.SpaceRatio = weighted / float64(n)
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// handleHealthz probes every shard concurrently and reports per-shard
// liveness. The proxy itself is healthy as long as it can answer, so the
// status degrades rather than fails when shards are down.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	health := make([]api.ShardHealth, len(shards))
	scatter(shards, allShards(shards), func(c *shardClient) error {
		h := api.ShardHealth{Shard: c.shard, Addr: topo.Shards[c.shard].Addr}
		if err := c.check(r.Context()); err != nil {
			h.Error = err.Error()
		} else {
			h.Healthy = true
		}
		health[c.shard] = h
		return nil
	})
	status := "ok"
	for _, h := range health {
		if !h.Healthy {
			status = "degraded"
		}
	}
	api.WriteJSON(w, http.StatusOK, api.HealthzResponse{Status: status, SLO: p.mux.SLO(), Shards: health})
}

// handleMetrics serves the proxy's metrics plane. The default body is the
// proxy's own registry (endpoint histograms, runtime, per-shard client
// gauges) as JSON; ?format=prom renders the same snapshot in the Prometheus
// text format, matching the store nodes' endpoint. ?scope=cluster widens
// the view to the store nodes themselves: the proxy scrapes every shard's
// /v1/metrics and fans the registries in, labelled per shard — one scrape
// for the whole cluster.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cluster := q.Get("scope") == "cluster"
	prom := q.Get("format") == "prom"
	switch {
	case cluster && prom:
		p.serveClusterProm(w, r)
	case cluster:
		p.serveClusterJSON(w, r)
	case prom:
		p.serveProxyProm(w, r)
	default:
		p.serveProxyJSON(w, r)
	}
}

// serveProxyJSON is the proxy-scope JSON metrics body.
func (p *Proxy) serveProxyJSON(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	snap := p.Telemetry().Snapshot()
	perShard := make([]map[string]interface{}, len(shards))
	for s, c := range shards {
		lat := c.lat.Snapshot()
		perShard[s] = map[string]interface{}{
			"shard":          s,
			"addr":           topo.Shards[s].Addr,
			"healthy":        c.healthy.Load(),
			"last_error":     c.lastErr.Load(),
			"inflight":       c.inflight.Load(),
			"requests_total": c.requests.Load(),
			"errors_total":   c.errors.Load(),
			"hedges_total":   c.hedges.Load(),
			"p99_ms":         lat.P99Ms,
			"latency":        lat,
		}
	}
	body := map[string]interface{}{
		"uptime_seconds": snap.UptimeSeconds,
		"endpoints":      snap.Endpoints,
		"runtime":        snap.Runtime,
		"topology": map[string]interface{}{
			"shards":     len(shards),
			"open_shard": topo.OpenShard(),
		},
		"shards": perShard,
		"traces": p.mux.TraceStats(),
	}
	if snap.SLO != nil {
		body["slo"] = snap.SLO
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// serveProxyProm renders the proxy's own registry plus the per-shard client
// gauges in the Prometheus text format.
func (p *Proxy) serveProxyProm(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := telemetry.WritePrometheus(w, p.Telemetry().Snapshot()); err != nil {
		trace.LoggerFrom(r.Context()).Error("prometheus render failed", "err", err)
		return
	}
	if err := writeShardGauges(w, topo, shards); err != nil {
		trace.LoggerFrom(r.Context()).Error("prometheus render failed", "err", err)
	}
}

// writeShardGauges renders the proxy's per-shard client view — health,
// inflight, request/error/hedge totals and observed p99 — one family per
// metric with shard/addr labels.
func writeShardGauges(w io.Writer, topo *Topology, shards []*shardClient) error {
	type fam struct {
		name, typ, help string
		value           func(c *shardClient) float64
	}
	boolGauge := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	fams := []fam{
		{"seqstore_shard_healthy", "gauge", "Whether the last exchange with the shard succeeded.",
			func(c *shardClient) float64 { return boolGauge(c.healthy.Load()) }},
		{"seqstore_shard_inflight", "gauge", "Requests currently in flight to the shard.",
			func(c *shardClient) float64 { return float64(c.inflight.Load()) }},
		{"seqstore_shard_requests_total", "counter", "Requests sent to the shard.",
			func(c *shardClient) float64 { return float64(c.requests.Load()) }},
		{"seqstore_shard_errors_total", "counter", "Failed exchanges with the shard.",
			func(c *shardClient) float64 { return float64(c.errors.Load()) }},
		{"seqstore_shard_hedges_total", "counter", "Hedged attempts launched against the shard.",
			func(c *shardClient) float64 { return float64(c.hedges.Load()) }},
		{"seqstore_shard_latency_p99_seconds", "gauge", "Observed p99 latency of the shard from this proxy.",
			func(c *shardClient) float64 { return c.lat.Snapshot().P99Ms / 1e3 }},
	}
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for s, c := range shards {
			if _, err := fmt.Fprintf(w, "%s{shard=\"%d\",addr=%q} %g\n",
				f.name, s, topo.Shards[s].Addr, f.value(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveClusterProm scrapes every shard's /v1/metrics?format=prom, parses
// the expositions (structural validation included) and re-renders them as
// one merged exposition with a shard label on every sample. A scrape
// pointed at the proxy therefore sees the whole cluster's registries
// without knowing the store nodes exist.
func (p *Proxy) serveClusterProm(w http.ResponseWriter, r *http.Request) {
	_, shards := p.view()
	parts := make([]telemetry.LabeledMetrics, len(shards))
	fails := scatter(shards, allShards(shards), func(c *shardClient) error {
		resp, err := c.do(r.Context(), http.MethodGet, "/v1/metrics?format=prom", nil, true)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("shard %d: metrics scrape returned %d", c.shard, resp.status)
		}
		m, err := telemetry.ParsePrometheus(bytes.NewReader(resp.body))
		if err != nil {
			return fmt.Errorf("shard %d: unparseable exposition: %v", c.shard, err)
		}
		parts[c.shard] = telemetry.LabeledMetrics{
			Labels: map[string]string{"shard": strconv.Itoa(c.shard)},
			M:      m,
		}
		return nil
	})
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := telemetry.WriteMergedPrometheus(w, parts); err != nil {
		trace.LoggerFrom(r.Context()).Error("prometheus render failed", "err", err)
	}
}

// serveClusterJSON scrapes every shard's JSON metrics body and embeds them
// verbatim under per-shard entries.
func (p *Proxy) serveClusterJSON(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	type shardMetrics struct {
		Shard   int             `json:"shard"`
		Addr    string          `json:"addr"`
		Metrics json.RawMessage `json:"metrics"`
	}
	out := make([]shardMetrics, len(shards))
	fails := scatter(shards, allShards(shards), func(c *shardClient) error {
		resp, err := c.do(r.Context(), http.MethodGet, "/v1/metrics", nil, true)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("shard %d: metrics scrape returned %d", c.shard, resp.status)
		}
		if !json.Valid(resp.body) {
			return fmt.Errorf("shard %d: metrics body is not valid JSON", c.shard)
		}
		out[c.shard] = shardMetrics{
			Shard:   c.shard,
			Addr:    topo.Shards[c.shard].Addr,
			Metrics: json.RawMessage(resp.body),
		}
		return nil
	})
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"scope":  "cluster",
		"shards": out,
	})
}

// --- Point reads -------------------------------------------------------------

// handleCell routes one cell lookup to the shard owning its row,
// rewriting the row index to shard-local on the way out and back to
// global on the way in. Label addressing needs the label → index maps the
// shards hold, so the proxy (which holds no data) rejects it.
func (p *Proxy) handleCell(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("row") != "" || q.Get("col") != "" {
		api.WriteError(w, r, api.Invalidf("the proxy is index-addressed: use integer i and j (label maps live on the store nodes)"))
		return
	}
	i, err1 := strconv.Atoi(q.Get("i"))
	j, err2 := strconv.Atoi(q.Get("j"))
	if err1 != nil || err2 != nil {
		api.WriteError(w, r, api.Invalidf("cell needs integer i and j parameters"))
		return
	}
	topo, shards := p.view()
	s := topo.Locate(i)
	if s < 0 {
		api.WriteError(w, r, errNoShard(i))
		return
	}
	c := shards[s]
	var body api.CellResponse
	path := fmt.Sprintf("/v1/cell?i=%d&j=%d", i-topo.Shards[s].Lo, j)
	if err := c.doJSON(r.Context(), http.MethodGet, path, nil, &body, true); err != nil {
		p.failShard(w, r, c, err)
		return
	}
	body.I = i
	api.WriteJSON(w, http.StatusOK, body)
}

// handleRow routes one row reconstruction to its shard.
func (p *Proxy) handleRow(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.URL.Query().Get("i"))
	if err != nil {
		api.WriteError(w, r, api.Invalidf("row needs an integer i parameter"))
		return
	}
	topo, shards := p.view()
	s := topo.Locate(i)
	if s < 0 {
		api.WriteError(w, r, errNoShard(i))
		return
	}
	c := shards[s]
	var body api.RowResponse
	path := fmt.Sprintf("/v1/row?i=%d", i-topo.Shards[s].Lo)
	if err := c.doJSON(r.Context(), http.MethodGet, path, nil, &body, true); err != nil {
		p.failShard(w, r, c, err)
		return
	}
	body.I = i
	api.WriteJSON(w, http.StatusOK, body)
}

// handleCells fans a batched cell lookup out to the owning shards — one
// /v1/cells per shard carrying its cells — and reassembles the responses
// in the original request order.
func (p *Proxy) handleCells(w http.ResponseWriter, r *http.Request) {
	coords, err := api.ParseCells(r.URL.Query()["at"], p.opts.MaxBatchCells)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	topo, shards := p.view()
	type group struct {
		spec strings.Builder
		pos  []int // original positions, in per-shard request order
	}
	groups := make([]group, len(shards))
	for pos, c := range coords {
		s := topo.Locate(c[0])
		if s < 0 {
			api.WriteError(w, r, errNoShard(c[0]))
			return
		}
		g := &groups[s]
		if len(g.pos) > 0 {
			g.spec.WriteByte(',')
		}
		fmt.Fprintf(&g.spec, "%d:%d", c[0]-topo.Shards[s].Lo, c[1])
		g.pos = append(g.pos, pos)
	}
	var targets []int
	for s := range groups {
		if len(groups[s].pos) > 0 {
			targets = append(targets, s)
		}
	}
	out := make([]api.CellResponse, len(coords))
	fails := scatter(shards, targets, func(c *shardClient) error {
		g := &groups[c.shard]
		var body api.CellsResponse
		if err := c.doJSON(r.Context(), http.MethodGet, "/v1/cells?at="+g.spec.String(), nil, &body, true); err != nil {
			return err
		}
		if len(body.Cells) != len(g.pos) {
			return fmt.Errorf("shard %d returned %d cells, expected %d", c.shard, len(body.Cells), len(g.pos))
		}
		lo := topo.Shards[c.shard].Lo
		for k, cell := range body.Cells {
			cell.I += lo
			out[g.pos[k]] = cell
		}
		return nil
	})
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.CellsResponse{Count: len(out), Cells: out})
}

// handleRows fans a batched row reconstruction out by shard and
// reassembles in request order, re-mapping row indices to global.
func (p *Proxy) handleRows(w http.ResponseWriter, r *http.Request) {
	n, _, fails := p.globalDims(r.Context())
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	idx, err := api.ParseRows(r.URL.Query().Get("i"), n, p.opts.MaxBatchRows)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	topo, shards := p.view()
	type group struct {
		local []int
		pos   []int
	}
	groups := make([]group, len(shards))
	for pos, i := range idx {
		s := topo.Locate(i)
		if s < 0 {
			api.WriteError(w, r, errNoShard(i))
			return
		}
		groups[s].local = append(groups[s].local, i-topo.Shards[s].Lo)
		groups[s].pos = append(groups[s].pos, pos)
	}
	var targets []int
	for s := range groups {
		if len(groups[s].pos) > 0 {
			targets = append(targets, s)
		}
	}
	out := make([]api.RowResponse, len(idx))
	fails = scatter(shards, targets, func(c *shardClient) error {
		g := &groups[c.shard]
		var body api.RowsResponse
		if err := c.doJSON(r.Context(), http.MethodGet, "/v1/rows?i="+renderSpec(g.local), nil, &body, true); err != nil {
			return err
		}
		if len(body.Rows) != len(g.pos) {
			return fmt.Errorf("shard %d returned %d rows, expected %d", c.shard, len(body.Rows), len(g.pos))
		}
		lo := topo.Shards[c.shard].Lo
		for k, row := range body.Rows {
			row.I += lo
			out[g.pos[k]] = row
		}
		return nil
	})
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.RowsResponse{Count: len(out), Rows: out})
}

// --- Aggregates (scatter/gather) ---------------------------------------------

// errProxyPartial refuses the shard-internal partial form at the proxy.
var errProxyPartial = api.Invalidf("partial evaluation is the shard-internal wire form; the proxy returns finished values")

// handleAggregate is POST /v1/aggregate at the proxy: split the validated
// selection by shard row ranges, evaluate each fragment remotely into an
// exact partial, and merge in shard order.
// Because every partial carries exact accumulator state and the final
// rounding runs through the same finalize code a store node uses, the
// result is bit-identical to a single node evaluating the unsplit
// selection — for every aggregate, any shard count, any per-shard worker
// count.
func (p *Proxy) handleAggregate(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeAggregate(w, r)
	if err == nil && req.Partial {
		err = errProxyPartial
	}
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	n, m, fails := p.globalDims(r.Context())
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	pa, err := req.Parse(n, m)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	body := api.AggregateResponse{F: pa.F, Rows: len(pa.Sel.Rows), Cols: len(pa.Sel.Cols)}
	if pa.Agg == query.Count {
		// Count is selection arithmetic; the validated selection already
		// answers it without touching a shard.
		body.Value, body.Nonfinite = api.Float(float64(pa.Sel.NumCells()))
		if req.Explain {
			body.Explain = countExplain(r.Context(), pa)
		}
		api.WriteJSON(w, http.StatusOK, body)
		return
	}
	v, shardEx, gerr, fails := p.gather(r, pa, req.Explain)
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	if gerr != nil {
		api.WriteError(w, r, gerr)
		return
	}
	body.Value, body.Nonfinite = api.Float(v)
	if req.Explain {
		body.Explain = mergeShardExplains(r.Context(), shardEx)
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// countExplain is the explain block of a count the proxy answered itself.
func countExplain(ctx context.Context, pa api.Aggregate) *api.Explain {
	return &api.Explain{
		Plan:  query.PlanCount,
		Cells: int64(pa.Sel.NumCells()),
		Cost:  trace.LedgerFrom(ctx).Snapshot(),
	}
}

// mergeShardExplains folds per-shard explain blocks into the proxy's
// top-level view: numeric fields sum across shards (the scattered fragments
// partition the selection, so the sums describe the whole query), the plan
// and plan-cache labels survive when the shards agree and degrade to
// "mixed" otherwise, Workers reports the widest shard, and Cost is the
// proxy's own ledger — the fold of every winning attempt's cost headers.
func mergeShardExplains(ctx context.Context, shards []api.ShardExplain) *api.Explain {
	e := &api.Explain{Shards: shards}
	for k, se := range shards {
		if k == 0 {
			e.Plan, e.PlanCache, e.ChunkRows = se.Plan, se.PlanCache, se.ChunkRows
		} else {
			if se.Plan != e.Plan {
				e.Plan = "mixed"
			}
			if se.PlanCache != e.PlanCache {
				e.PlanCache = "mixed"
			}
			if se.ChunkRows != e.ChunkRows {
				e.ChunkRows = 0 // per-shard; see Shards
			}
		}
		if se.Workers > e.Workers {
			e.Workers = se.Workers
		}
		e.Cells += se.Cells
		e.Chunks += se.Chunks
		e.Runs += se.Runs
		e.CoalescedScans += se.CoalescedScans
		e.ScanRows += se.ScanRows
		e.PointRows += se.PointRows
		e.ZeroRows += se.ZeroRows
		e.EstRowsRead += se.EstRowsRead
		e.EstDiskAccesses += se.EstDiskAccesses
		e.EstPagesTouched += se.EstPagesTouched
		e.EstDeltasProbed += se.EstDeltasProbed
	}
	e.Cost = trace.LedgerFrom(ctx).Snapshot()
	return e
}

// gather scatters one parsed aggregate and merges the shard partials.
// With explain set, each fragment request also asks its shard for an
// explain block; the blocks come back in shard order.
func (p *Proxy) gather(r *http.Request, pa api.Aggregate, explain bool) (float64, []api.ShardExplain, error, []shardFailure) {
	topo, shards := p.view()
	frags, err := query.SplitSelection(pa.Sel, topo.Ranges())
	if err != nil {
		return 0, nil, err, nil
	}
	var targets []int
	for s := range frags {
		if len(frags[s].Rows) > 0 {
			targets = append(targets, s)
		}
	}
	parts := make([]*query.Partial, len(shards))
	exs := make([]*api.Explain, len(shards))
	fails := scatter(shards, targets, func(c *shardClient) error {
		frag := frags[c.shard]
		reqBody := api.AggregateRequest{
			F:       pa.F,
			Rows:    renderSpec(frag.Rows),
			Cols:    renderSpec(frag.Cols),
			Partial: true,
			Explain: explain,
		}
		var resp api.AggregateResponse
		if err := c.doJSON(r.Context(), http.MethodPost, "/v1/aggregate", reqBody, &resp, true); err != nil {
			return err
		}
		part, err := api.DecodePartial(resp.Partial)
		if err != nil {
			return err
		}
		parts[c.shard] = part
		exs[c.shard] = resp.Explain
		return nil
	})
	if len(fails) > 0 {
		return 0, nil, nil, fails
	}
	var shardEx []api.ShardExplain
	if explain {
		for s, ex := range exs {
			if ex != nil {
				shardEx = append(shardEx, api.ShardExplain{Shard: s, Explain: *ex})
			}
		}
	}
	// parts is indexed by shard, so the merge order is the deterministic
	// shard order regardless of response arrival (merge order doesn't
	// change the bits — the accumulators are exact — but determinism makes
	// that property testable).
	v, err := query.MergePartials(pa.Agg, parts)
	return v, shardEx, err, nil
}

// handleAggBatch scatters a whole aggregate batch: each shard receives
// one /v1/aggregate/batch carrying the fragments of every query that
// touches it (keeping the store nodes' scan-sharing across queries), and
// each query's partials merge in shard order. Per-query failures cost
// that item its status, mirroring the single-node batch contract; a
// shard-level failure fails the request with 503 and the shard detail.
func (p *Proxy) handleAggBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := api.DecodeBatch(w, r, p.opts.MaxBatchQueries)
	if err == nil && req.Partial {
		err = errProxyPartial
	}
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	n, m, fails := p.globalDims(r.Context())
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}
	topo, shards := p.view()
	ranges := topo.Ranges()

	numQ := len(req.Queries)
	parsed := make([]api.Aggregate, numQ)
	parseErrs := make([]error, numQ)
	// Per-shard batch under construction: the fragment requests plus the
	// query index each one answers.
	type shardBatch struct {
		queries []api.AggregateRequest
		qi      []int
	}
	batches := make([]shardBatch, len(shards))
	for qi, bq := range req.Queries {
		pa, err := bq.Parse(n, m)
		if err != nil {
			parseErrs[qi] = err
			continue
		}
		parsed[qi] = pa
		if pa.Agg == query.Count {
			continue // answered locally, like the single-query path
		}
		frags, err := query.SplitSelection(pa.Sel, ranges)
		if err != nil {
			parseErrs[qi] = err
			continue
		}
		for s := range frags {
			if len(frags[s].Rows) == 0 {
				continue
			}
			batches[s].queries = append(batches[s].queries, api.AggregateRequest{
				F:       pa.F,
				Rows:    renderSpec(frags[s].Rows),
				Cols:    renderSpec(frags[s].Cols),
				Explain: req.Explain || bq.Explain,
			})
			batches[s].qi = append(batches[s].qi, qi)
		}
	}

	var targets []int
	for s := range batches {
		if len(batches[s].queries) > 0 {
			targets = append(targets, s)
		}
	}
	// partials[qi][s] is query qi's partial from shard s; itemErrs[qi]
	// records a per-item remote failure (each slot is written by at most
	// one scatter goroutine per shard, so placement is race-free; the
	// merge below runs after the barrier).
	partials := make([][]*query.Partial, numQ)
	for qi := range partials {
		partials[qi] = make([]*query.Partial, len(shards))
	}
	explains := make([][]*api.Explain, numQ)
	for qi := range explains {
		explains[qi] = make([]*api.Explain, len(shards))
	}
	itemErrs := make([][]*remoteError, numQ)
	for qi := range itemErrs {
		itemErrs[qi] = make([]*remoteError, len(shards))
	}
	fails = scatter(shards, targets, func(c *shardClient) error {
		b := &batches[c.shard]
		var resp api.BatchAggregateResponse
		err := c.doJSON(r.Context(), http.MethodPost, "/v1/aggregate/batch",
			api.BatchAggregateRequest{Queries: b.queries, Partial: true}, &resp, true)
		if err != nil {
			return err
		}
		if len(resp.Items) != len(b.queries) {
			return fmt.Errorf("shard %d returned %d items, expected %d", c.shard, len(resp.Items), len(b.queries))
		}
		for k, item := range resp.Items {
			qi := b.qi[k]
			if item.Status != http.StatusOK {
				itemErrs[qi][c.shard] = &remoteError{status: item.Status, msg: item.Error}
				continue
			}
			part, err := api.DecodePartial(item.Partial)
			if err != nil {
				return err
			}
			partials[qi][c.shard] = part
			explains[qi][c.shard] = item.Explain
		}
		return nil
	})
	if len(fails) > 0 {
		p.failScatter(w, r, fails)
		return
	}

	out := make([]api.BatchAggregateItem, numQ)
	hadErr := false
	for qi := range req.Queries {
		if err := parseErrs[qi]; err != nil {
			status, _ := api.Classify(err)
			out[qi] = api.BatchAggregateItem{Status: status, Error: err.Error()}
			hadErr = true
			continue
		}
		pa := parsed[qi]
		for _, re := range itemErrs[qi] {
			if re != nil {
				out[qi] = api.BatchAggregateItem{Status: re.status, Error: re.msg}
				hadErr = true
				break
			}
		}
		if out[qi].Status != 0 {
			continue
		}
		it := api.BatchAggregateItem{
			Status: http.StatusOK,
			F:      pa.F,
			Rows:   len(pa.Sel.Rows),
			Cols:   len(pa.Sel.Cols),
		}
		var v float64
		var err error
		if pa.Agg == query.Count {
			v = float64(pa.Sel.NumCells())
		} else {
			v, err = query.MergePartials(pa.Agg, partials[qi])
		}
		if err != nil {
			status, _ := api.Classify(err)
			out[qi] = api.BatchAggregateItem{Status: status, Error: err.Error()}
			hadErr = true
			continue
		}
		it.Value, it.Nonfinite = api.Float(v)
		if req.Explain || req.Queries[qi].Explain {
			if pa.Agg == query.Count {
				it.Explain = countExplain(r.Context(), pa)
			} else {
				var shardEx []api.ShardExplain
				for s, ex := range explains[qi] {
					if ex != nil {
						shardEx = append(shardEx, api.ShardExplain{Shard: s, Explain: *ex})
					}
				}
				it.Explain = mergeShardExplains(r.Context(), shardEx)
			}
		}
		out[qi] = it
	}
	api.WriteJSON(w, http.StatusOK, api.BatchAggregateResponse{
		Took:   time.Since(start).Milliseconds(),
		Errors: hadErr,
		Items:  out,
	})
}

// --- Writes ------------------------------------------------------------------

// handleBulk forwards the NDJSON append to the open-ended shard — the one
// whose range absorbs new rows — and re-maps the assigned row indices to
// global. Appends are not idempotent, so they are never hedged.
func (p *Proxy) handleBulk(w http.ResponseWriter, r *http.Request) {
	topo, shards := p.view()
	open := topo.OpenShard()
	if open < 0 {
		api.WriteErrorDetail(w, r, http.StatusForbidden, api.ErrorDetail{
			Code:    api.CodeNotWritable,
			Message: "topology has no open-ended shard: every row range is closed, so the cluster cannot absorb appends",
		})
		return
	}
	// The body is buffered once so a shard hiccup never leaves a
	// half-consumed stream.
	bodyBytes, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBulkBody))
	if err != nil {
		api.WriteError(w, r, api.Invalidf("bulk: reading body: %v", err))
		return
	}
	c := shards[open]
	resp, err := c.do(r.Context(), http.MethodPost, "/v1/bulk", bodyBytes, false)
	if err != nil {
		p.failShard(w, r, c, err)
		return
	}
	if resp.status/100 != 2 {
		p.failShard(w, r, c, decodeRemote(resp))
		return
	}
	var body api.BulkResponse
	if err := json.Unmarshal(resp.body, &body); err != nil {
		p.failShard(w, r, c, fmt.Errorf("shard %d (%s): undecodable bulk response: %v", c.shard, c.addr, err))
		return
	}
	lo := topo.Shards[open].Lo
	for k := range body.Items {
		if body.Items[k].Create.Status == http.StatusCreated {
			body.Items[k].Create.Row += lo
		}
	}
	p.markDimsStale()
	api.WriteJSON(w, http.StatusOK, body)
}
