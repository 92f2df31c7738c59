package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/store"
	"seqstore/internal/svd"
	"seqstore/internal/trace"
)

// layerMetric is one per-layer metric's name and unit. Every workload's
// traced run reports the whole catalog, with 0 where a layer does no work
// on that workload (the cluster layer on adhoc-node, ingest on ad hoc).
type layerMetric struct{ name, unit string }

var layerCatalog = []layerMetric{
	{"server.handler_ms.cell", "ms"}, {"server.handler_ms.row", "ms"}, {"server.handler_ms.agg", "ms"},
	{"server.handler_ms.batch", "ms"}, {"server.handler_ms.bulk", "ms"},
	{"server.transport_ms.cell", "ms"}, {"server.transport_ms.agg", "ms"},
	{"server.row_cache_hit_ratio", "ratio"}, {"server.cache_invalidations", "count"},
	{"server.resp_bytes.cell", "bytes"}, {"server.resp_bytes.agg", "bytes"}, {"server.resp_bytes.batch", "bytes"},
	{"api.encode_us.cell", "us"}, {"api.encode_us.agg", "us"}, {"api.encode_us.batch", "us"},
	{"api.decode_us.agg", "us"}, {"api.decode_us.batch", "us"}, {"api.decode_us.bulk", "us"},
	{"trace.cost_header_us", "us"},
	{"query.eval_ms.sum", "ms"}, {"query.eval_ms.avg", "ms"}, {"query.eval_ms.stddev", "ms"},
	{"query.eval_ms.min", "ms"}, {"query.eval_ms.max", "ms"},
	{"query.plan_ms", "ms"}, {"query.plan_hit_ratio", "ratio"},
	{"query.batch_ms", "ms"}, {"query.batch_disk_ratio", "ratio"},
	{"query.rows_read_per_agg", "count"}, {"query.deltas_probed_per_agg", "count"}, {"query.worker_chunks_per_agg", "count"},
	{"core.cell_us", "us"}, {"core.row_us", "us"}, {"core.bloom_save_ratio", "ratio"},
	{"matio.disk_accesses_per_cell", "count"}, {"matio.pages_per_agg", "count"},
	{"cluster.proxy_self_ms.cell", "ms"}, {"cluster.proxy_self_ms.row", "ms"},
	{"cluster.proxy_self_ms.agg", "ms"}, {"cluster.proxy_self_ms.batch", "ms"},
	{"cluster.shard_rtt_p50_ms", "ms"}, {"cluster.shard_rtt_p99_ms", "ms"}, {"cluster.shard_skew_ms", "ms"},
	{"cluster.fanout_per_req", "count"}, {"cluster.partial_bytes", "bytes"}, {"cluster.shard_errors", "count"},
	{"query.partial_codec_us", "us"}, {"exact.merge_us", "us"},
	{"ingest.append_ms", "ms"}, {"ingest.wal_syncs_per_batch", "count"}, {"ingest.wal_bytes_per_row", "bytes"},
	{"ingest.compactions", "count"}, {"ingest.rows_folded", "count"}, {"ingest.compact_pause_us_max", "us"},
	{"ingest.recompressions", "count"}, {"ingest.recompress_s", "s"},
	{"dataset.gen_s", "s"}, {"matio.write_s", "s"}, {"svd.accumulate_c_s", "s"}, {"linalg.sym_eigen_s", "s"},
	{"core.score_emit_s", "s"}, {"store.save_s", "s"}, {"store.open_s", "s"},
	{"go.gc_pause_ms", "ms/s"}, {"go.alloc_bytes_per_op", "bytes"},
	{"bench.tracing_overhead_frac", "ratio"}, {"bench.unattributed_frac", "ratio"},
	// End-to-end metrics outside BENCHMARK.json's bounded set (see
	// gatedEndToEnd), measured on the untraced slices of the traced run.
	{"error_rate", "ratio"}, {"cell_p99_ms", "ms"}, {"agg_p99_ms", "ms"},
	{"row_p50_ms", "ms"}, {"row_p99_ms", "ms"}, {"batch_p50_ms", "ms"}, {"batch_p99_ms", "ms"},
	{"bulk_p50_ms", "ms"}, {"bulk_p99_ms", "ms"}, {"ingest_rows_per_s", "1/s"},
}

// layers accumulates one traced run's per-layer values before they are
// laid out in catalog order.
type layers struct {
	v map[string]float64
	n map[string]int
}

func newLayers() *layers { return &layers{v: map[string]float64{}, n: map[string]int{}} }

func (l *layers) set(name string, v float64, samples int) {
	l.v[name], l.n[name] = v, samples
}

// setMedian records the median of xs (0 without samples).
func (l *layers) setMedian(name string, xs []float64) {
	l.set(name, finite(median(xs)), len(xs))
}

// emit appends the catalog to rep's per-layer block.
func (l *layers) emit(rep *report) {
	for _, m := range layerCatalog {
		rep.add(&rep.PerLayer, m.name, l.v[m.name], m.unit, "", l.n[m.name])
	}
}

// copyEndToEnd carries the untraced slices' end-to-end metrics that are in
// the per-layer catalog.
func (l *layers) copyEndToEnd(rep *report) {
	for _, m := range rep.EndToEnd {
		for _, c := range layerCatalog {
			if c.name == m.Name {
				l.set(m.Name, finite(m.Value), m.Samples)
			}
		}
	}
}

// timeEach times fn over n samples, reps calls per sample, returning µs
// per call for each sample.
func timeEach(n, reps int, fn func(k int)) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			fn(k)
		}
		out[k] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(reps)
	}
	return out
}

// sampleOf returns up to limit successful traced results of class c.
func sampleOf(rs []*result, c opClass, limit int) []*result {
	var out []*result
	for _, r := range rs {
		if r.op != nil && r.op.class == c && !r.failed && len(out) < limit {
			out = append(out, r)
		}
	}
	return out
}

// replaySamples bounds how many recorded requests each replay uses.
const replaySamples = 64

// commonLayers measures what every workload shares: handler and transport
// splits, response sizes, cache and plan counters, wire-format and cost
// header replays, the Go runtime and the tracing overhead.
func commonLayers(l *layers, d *deployment, rs *runStats) {
	nodeSpans, proxySpans, _ := d.probes.snapshot()
	for _, c := range []opClass{classCell, classRow, classAgg, classBatch, classBulk} {
		var xs []float64
		for _, s := range nodeSpans {
			if s.class == c {
				xs = append(xs, s.ms())
			}
		}
		l.setMedian("server.handler_ms."+c.String(), xs)
	}
	front := nodeSpans
	if d.proxy != nil {
		front = proxySpans
	}
	byID := make(map[string]span, len(front))
	for _, s := range front {
		byID[s.id] = s
	}
	for _, c := range []opClass{classCell, classAgg} {
		l.setMedian("server.transport_ms."+c.String(), transport(rs.traced, byID, c))
	}

	var hits, misses, inval int64
	var plans query.PlanCacheStats
	for _, h := range d.hands {
		hi, mi, _, _ := h.CacheStats()
		hits, misses = hits+hi, misses+mi
		inval += h.Telemetry().Counter("cache_invalidations").Load()
		ps := h.PlanStats()
		plans.Hits, plans.Misses = plans.Hits+ps.Hits, plans.Misses+ps.Misses
	}
	l.set("server.row_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	l.set("server.cache_invalidations", float64(inval), 1)
	l.set("query.plan_hit_ratio", ratio(plans.Hits, plans.Hits+plans.Misses), int(plans.Hits+plans.Misses))

	for _, c := range []opClass{classCell, classAgg, classBatch} {
		var xs []float64
		for _, r := range sampleOf(rs.traced, c, math.MaxInt) {
			xs = append(xs, float64(len(r.body)))
		}
		l.set("server.resp_bytes."+c.String(), finite(mean(xs)), len(xs))
	}

	// Wire structs: re-encode recorded responses, re-decode recorded
	// request bodies.
	encode := func(c opClass, fresh func() any) {
		sample := sampleOf(rs.traced, c, replaySamples)
		vals := make([]any, len(sample))
		for k, r := range sample {
			vals[k] = fresh()
			json.Unmarshal(r.body, vals[k]) // answers already verified
		}
		var buf bytes.Buffer
		l.setMedian("api.encode_us."+c.String(), timeEach(len(vals), 20, func(k int) {
			buf.Reset()
			json.NewEncoder(&buf).Encode(vals[k])
		}))
	}
	encode(classCell, func() any { return new(api.CellResponse) })
	encode(classAgg, func() any { return new(api.AggregateResponse) })
	encode(classBatch, func() any { return new(api.BatchAggregateResponse) })
	decode := func(c opClass, fresh func() any) {
		sample := sampleOf(rs.traced, c, replaySamples)
		l.setMedian("api.decode_us."+c.String(), timeEach(len(sample), 20, func(k int) {
			json.NewDecoder(bytes.NewReader(sample[k].op.body)).Decode(fresh())
		}))
	}
	decode(classAgg, func() any { return new(api.AggregateRequest) })
	decode(classBatch, func() any { return new(api.BatchAggregateRequest) })

	var snaps []trace.LedgerSnapshot
	for _, r := range rs.traced {
		if !r.failed && len(snaps) < replaySamples {
			snaps = append(snaps, r.cost)
		}
	}
	l.setMedian("trace.cost_header_us", timeEach(len(snaps), 50, func(k int) {
		trace.EncodeCostHeaders(make(http.Header, 12), snaps[k])
	}))

	ops := len(rs.all)
	secs := rs.untracedSecs + rs.tracedSecs
	l.set("go.gc_pause_ms", float64(rs.gcPauseNs)/1e6/secs, ops)
	l.set("go.alloc_bytes_per_op", float64(rs.allocBytes)/float64(max(ops, 1)), ops)
	l.set("bench.tracing_overhead_frac", tracingOverhead(rs), len(rs.all))
}

// tracingOverhead compares each op class's median latency in the traced
// slices with the untraced ones, weighted by the untraced request counts:
// the fraction by which tracing slowed a typical request.
func tracingOverhead(rs *runStats) float64 {
	var num, den float64
	for c := opClass(0); c < numClasses; c++ {
		u, t := latencies(rs.untraced, c), latencies(rs.traced, c)
		if len(u) == 0 || len(t) == 0 {
			continue
		}
		mu, mt := median(u), median(t)
		num += float64(len(u)) * (mt - mu)
		den += float64(len(u)) * mu
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// transport returns, per traced request of class c, the client's round
// trip minus the time the front handler spent on it.
func transport(rs []*result, front map[string]span, c opClass) []float64 {
	var xs []float64
	for _, r := range rs {
		if r.op == nil || r.op.class != c || r.failed {
			continue
		}
		if s, ok := front[r.id]; ok {
			xs = append(xs, float64(r.dur)/1e6-s.ms())
		}
	}
	return xs
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// compressionLayers splits the traced run's setup by pass. Pass 1 is
// replayed on the same .smx to time its two halves: AccumulateCWorkers
// and SymEigen on that C.
func compressionLayers(l *layers, d *deployment, st stageTimes) error {
	l.set("dataset.gen_s", st.gen, 1)
	l.set("matio.write_s", st.write, 1)
	l.set("core.score_emit_s", st.scoreEmit, 1)
	l.set("store.save_s", st.save, 1)
	l.set("store.open_s", st.open, 1)
	src, err := matio.Open(d.smx)
	if err != nil {
		return err
	}
	defer src.Close()
	start := time.Now()
	c, err := svd.AccumulateCWorkers(src, 0)
	if err != nil {
		return err
	}
	l.set("svd.accumulate_c_s", time.Since(start).Seconds(), 1)
	start = time.Now()
	if _, err := linalg.SymEigen(c); err != nil {
		return err
	}
	l.set("linalg.sym_eigen_s", time.Since(start).Seconds(), 1)
	return nil
}

// adhocLayers measures the layers of a traced ad hoc sub-run into
// sr.layers while its deployment is still up.
func adhocLayers(rep *report, d *deployment, sr *subRun) error {
	rs := sr.rs
	l := newLayers()
	sr.layers = l
	commonLayers(l, d, rs)
	if err := compressionLayers(l, d, sr.setup); err != nil {
		return err
	}

	ledgerLayers(l, rep, rs)

	// Bloom savings on the served stores, read before any replay probes.
	var probesN, saves int64
	for _, s := range d.served() {
		if c, ok := s.(*core.Store); ok {
			p, sv := c.ProbeStats()
			probesN, saves = probesN+p, saves+sv
		}
	}
	l.set("core.bloom_save_ratio", ratio(saves, probesN+saves), int(probesN+saves))

	if err := queryLayers(l, d.full, rs); err != nil {
		return err
	}
	coreLayers(l, d.full, rs)
	if d.proxy != nil {
		if err := clusterLayers(l, d, rs); err != nil {
			return err
		}
	}
	unattributed(l, d, rs)
	return nil
}

// ledgerLayers averages the cost headers of traced answers, and checks the
// paper's claim on every traced cell: at most one disk access.
func ledgerLayers(l *layers, rep *report, rs *runStats) {
	var cellDisk, aggRows, aggDeltas, aggChunks, aggPages []float64
	for _, r := range rs.traced {
		if r.failed {
			continue
		}
		switch r.op.class {
		case classCell:
			cellDisk = append(cellDisk, float64(r.cost.DiskAccesses))
			if r.cost.DiskAccesses > 1 {
				r.failed = true
				rep.Notes = append(rep.Notes, fmt.Sprintf("cell (%d,%d) cost %d disk accesses", r.op.i, r.op.j, r.cost.DiskAccesses))
			}
		case classAgg:
			aggRows = append(aggRows, float64(r.cost.RowsRead))
			aggDeltas = append(aggDeltas, float64(r.cost.DeltasProbed))
			aggChunks = append(aggChunks, float64(r.cost.WorkerChunks))
			aggPages = append(aggPages, float64(r.cost.PagesTouched))
		}
	}
	l.set("matio.disk_accesses_per_cell", finite(mean(cellDisk)), len(cellDisk))
	l.set("matio.pages_per_agg", finite(mean(aggPages)), len(aggPages))
	l.set("query.rows_read_per_agg", finite(mean(aggRows)), len(aggRows))
	l.set("query.deltas_probed_per_agg", finite(mean(aggDeltas)), len(aggDeltas))
	l.set("query.worker_chunks_per_agg", finite(mean(aggChunks)), len(aggChunks))
}

// queryLayers replays recorded aggregates and batches through the query
// engine in process.
func queryLayers(l *layers, s store.Store, rs *runStats) error {
	warm := query.NewPlanCache(256)
	byF := map[string][]api.AggregateRequest{}
	for _, r := range sampleOf(rs.traced, classAgg, math.MaxInt) {
		if f := r.op.agg.F; len(byF[f]) < replaySamples/2 {
			byF[f] = append(byF[f], *r.op.agg)
		}
	}
	var planDiff []float64
	for _, f := range aggFuncs {
		reqs := byF[f]
		var warmMs []float64
		for _, req := range reqs {
			if _, err := evalAggregate(s, req, warm); err != nil {
				return err
			}
			w := timeEach(1, 10, func(int) { evalAggregate(s, req, warm) })[0] / 1e3
			c := timeEach(1, 10, func(int) { evalAggregate(s, req, nil) })[0] / 1e3
			warmMs = append(warmMs, w)
			planDiff = append(planDiff, c-w)
		}
		l.setMedian("query.eval_ms."+f, warmMs)
	}
	l.setMedian("query.plan_ms", planDiff)

	var batchMs, diskRatio []float64
	for _, r := range sampleOf(rs.traced, classBatch, replaySamples/2) {
		items := make([]query.BatchItem, len(r.op.batch))
		n, m := s.Dims()
		for k, req := range r.op.batch {
			agg, _ := query.ParseAggregate(req.F)
			rows, _ := query.ParseIndexSpec(req.Rows, n)
			cols, _ := query.ParseIndexSpec(req.Cols, m)
			items[k] = query.BatchItem{Agg: agg, Sel: query.Selection{Rows: rows, Cols: cols}}
		}
		batchMs = append(batchMs, timeEach(1, 3, func(int) {
			query.EvaluateBatch(s, items, query.Options{Workers: 1, Plans: warm})
		})[0]/1e3)
		led := new(trace.Ledger)
		if _, err := query.EvaluateBatch(s, items, query.Options{Workers: 1, Ctx: trace.WithLedger(context.Background(), led)}); err != nil {
			return err
		}
		var alone int64
		for _, it := range items {
			one := new(trace.Ledger)
			if _, err := query.EvaluateOpts(s, it.Agg, it.Sel, query.Options{Workers: 1, Ctx: trace.WithLedger(context.Background(), one)}); err != nil {
				return err
			}
			alone += one.DiskAccesses()
		}
		diskRatio = append(diskRatio, ratio(led.DiskAccesses(), alone))
	}
	l.setMedian("query.batch_ms", batchMs)
	l.setMedian("query.batch_disk_ratio", diskRatio)
	return nil
}

// coreLayers replays recorded cell and row reads straight on the store,
// without the server's row cache.
func coreLayers(l *layers, s store.Store, rs *runStats) {
	cells := sampleOf(rs.traced, classCell, 4*replaySamples)
	l.setMedian("core.cell_us", timeEach(len(cells), 50, func(k int) { s.Cell(cells[k].op.i, cells[k].op.j) }))
	rows := sampleOf(rs.traced, classRow, 4*replaySamples)
	_, m := s.Dims()
	buf := make([]float64, m)
	l.setMedian("core.row_us", timeEach(len(rows), 20, func(k int) { s.Row(rows[k].op.i, buf) }))
}

// clusterLayers joins proxy spans with the shard calls they caused, and
// replays the partial codec and the exact merge.
func clusterLayers(l *layers, d *deployment, rs *runStats) error {
	_, proxySpans, shardSpans := d.probes.snapshot()
	calls := map[string][]span{}
	var rtt, partialBytes []float64
	errs := 0
	for _, s := range shardSpans {
		calls[s.id] = append(calls[s.id], s)
		rtt = append(rtt, s.ms())
		if s.class == classAgg || s.class == classBatch {
			partialBytes = append(partialBytes, float64(s.bytes))
		}
		if s.failed {
			errs++
		}
	}
	self := map[opClass][]float64{}
	var skew []float64
	for _, p := range proxySpans {
		cs := calls[p.id]
		self[p.class] = append(self[p.class], p.ms()-unionMs(cs))
		if len(cs) >= 2 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range cs {
				lo, hi = math.Min(lo, c.ms()), math.Max(hi, c.ms())
			}
			skew = append(skew, hi-lo)
		}
	}
	for _, c := range []opClass{classCell, classRow, classAgg, classBatch} {
		l.setMedian("cluster.proxy_self_ms."+c.String(), self[c])
	}
	l.set("cluster.shard_rtt_p50_ms", finite(quantile(rtt, 0.50)), len(rtt))
	l.set("cluster.shard_rtt_p99_ms", finite(quantile(rtt, 0.99)), len(rtt))
	l.setMedian("cluster.shard_skew_ms", skew)
	l.set("cluster.fanout_per_req", ratio(int64(len(shardSpans)), int64(len(proxySpans))), len(proxySpans))
	l.set("cluster.partial_bytes", finite(mean(partialBytes)), len(partialBytes))
	l.set("cluster.shard_errors", float64(errs), len(shardSpans))

	// Partial codec and exact merge, replayed on the shard stores.
	n, m := d.full.Dims()
	var ranges []query.RowRange
	for s := range d.shards {
		ranges = append(ranges, query.RowRange{Lo: s * n / len(d.shards), Hi: (s + 1) * n / len(d.shards)})
	}
	var codec, merge []float64
	for _, r := range sampleOf(rs.traced, classAgg, replaySamples) {
		agg, _ := query.ParseAggregate(r.op.agg.F)
		rows, _ := query.ParseIndexSpec(r.op.agg.Rows, n)
		cols, _ := query.ParseIndexSpec(r.op.agg.Cols, m)
		frags, err := query.SplitSelection(query.Selection{Rows: rows, Cols: cols}, ranges)
		if err != nil {
			return err
		}
		var parts []*query.Partial
		for s, fr := range frags {
			if len(fr.Rows) == 0 {
				continue
			}
			p, err := query.EvaluatePartial(d.shards[s], agg, fr, query.Options{Workers: 1})
			if err != nil {
				return err
			}
			parts = append(parts, p)
		}
		codec = append(codec, timeEach(1, 20, func(int) {
			for _, p := range parts {
				raw, _ := p.MarshalBinary()
				var back query.Partial
				back.UnmarshalBinary(raw)
			}
		})[0])
		merge = append(merge, timeEach(1, 20, func(int) { query.MergePartials(agg, parts) })[0])
	}
	l.setMedian("query.partial_codec_us", codec)
	l.setMedian("exact.merge_us", merge)
	return nil
}

// unionMs is the length of the union of the spans' intervals.
func unionMs(ss []span) float64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(a, b int) bool { return ss[a].start.Before(ss[b].start) })
	total := time.Duration(0)
	curS, curE := ss[0].start, ss[0].end
	for _, s := range ss[1:] {
		if s.start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s.start, s.end
		} else if s.end.After(curE) {
			curE = s.end
		}
	}
	total += curE.Sub(curS)
	return float64(total) / 1e6
}

// unattributed compares each traced op class's median round trip with the
// sum of the layer self times measured for it: client↔front transport,
// the proxy's own work and its shard hops, and the replayed work inside a
// store node (decode, query or reconstruction, encode, cost headers). The
// remainder — middleware, routing, logging, scheduling — is reported as a
// fraction of the round trip, weighted by request counts.
func unattributed(l *layers, d *deployment, rs *runStats) {
	hit := l.v["server.row_cache_hit_ratio"]
	evalMean := 0.0
	for _, f := range aggFuncs {
		evalMean += l.v["query.eval_ms."+f] / float64(len(aggFuncs))
	}
	inner := map[opClass]float64{
		classCell:  (1-hit)*l.v["core.row_us"]/1e3 + l.v["api.encode_us.cell"]/1e3,
		classRow:   (1 - hit) * l.v["core.row_us"] / 1e3,
		classAgg:   l.v["api.decode_us.agg"]/1e3 + evalMean + l.v["api.encode_us.agg"]/1e3,
		classBatch: l.v["api.decode_us.batch"]/1e3 + l.v["query.batch_ms"] + l.v["api.encode_us.batch"]/1e3,
		classBulk:  l.v["api.decode_us.bulk"]/1e3 + l.v["ingest.append_ms"],
	}
	nodeSpans, proxySpans, shardSpans := d.probes.snapshot()
	front := nodeSpans
	if d.proxy != nil {
		front = proxySpans
	}
	byID := make(map[string]span, len(front))
	for _, s := range front {
		byID[s.id] = s
	}
	// Per proxied request: the proxy's own time, and the shard hops beyond
	// the nodes' handler time.
	hop, self := map[string]float64{}, map[string]float64{}
	if d.proxy != nil {
		nodeByID := map[string][]span{}
		for _, s := range nodeSpans {
			nodeByID[s.id] = append(nodeByID[s.id], s)
		}
		calls := map[string][]span{}
		for _, s := range shardSpans {
			calls[s.id] = append(calls[s.id], s)
		}
		for id, cs := range calls {
			u := unionMs(cs)
			hop[id] = u - unionMs(nodeByID[id])
			if p, ok := byID[id]; ok {
				self[id] = p.ms() - u
			}
		}
	}
	var num, den float64
	for _, c := range []opClass{classCell, classRow, classAgg, classBatch, classBulk} {
		var e2e, attr []float64
		for _, r := range rs.traced {
			if r.op == nil || r.op.class != c || r.failed {
				continue
			}
			s, ok := byID[r.id]
			if !ok {
				continue
			}
			rtt := float64(r.dur) / 1e6
			a := rtt - s.ms() + inner[c] + l.v["trace.cost_header_us"]/1e3
			if d.proxy != nil {
				a += self[r.id] + hop[r.id]
			}
			e2e = append(e2e, rtt)
			attr = append(attr, a)
		}
		if len(e2e) == 0 {
			continue
		}
		med := median(e2e)
		num += float64(len(e2e)) * (med - median(attr))
		den += float64(len(e2e)) * med
	}
	if den > 0 {
		l.set("bench.unattributed_frac", num/den, len(rs.traced))
	}
}
