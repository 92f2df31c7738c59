package api

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"seqstore/internal/telemetry"
	"seqstore/internal/trace"
)

// TracesPattern is the trace-ring endpoint every Mux serves. It is excluded
// from its own ring so inspecting traces doesn't churn them.
const TracesPattern = "/v1/debug/traces"

// MuxConfig carries the observability settings of a Mux; every field's
// zero value is usable.
type MuxConfig struct {
	// Logger receives the structured request log; nil silences it.
	Logger *slog.Logger
	// SlowQuery is the latency at or above which a request logs at Warn
	// with its full cost ledger; 0 disables the slow-query log.
	SlowQuery time.Duration
	// TraceBuffer is the /v1/debug/traces ring capacity; 0 selects
	// trace.DefaultRingSize.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective; 0 disables SLO
	// reporting. SLOTarget is the fraction of requests that must meet it;
	// 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64
}

// Mux is the request middleware and router of every process that serves
// the /v1 contract: the store node and the proxy register their endpoints
// here and nothing else wraps them. Each registered endpoint is counted,
// timed and traced:
//
//   - the request ID is echoed when the client sent a well-formed one and
//     minted otherwise;
//   - a valid inbound traceparent is adopted, so this process's spans join
//     the caller's distributed trace; a malformed one degrades to a fresh
//     root;
//   - the trace and its cost ledger ride the request context into the
//     handler, the store and the query layers;
//   - X-Request-Id and the full X-Cost-* ledger are set immediately before
//     the status line is committed, and a traced caller also gets the
//     bounded X-Trace-Spans summary;
//   - a verb other than the registered one gets 405 with Allow;
//   - the finished trace enters the /v1/debug/traces ring (except requests
//     to that endpoint), and one log line is emitted: Debug normally, Warn
//     at or above the slow-query threshold, Error on 5xx.
type Mux struct {
	mux    *http.ServeMux
	tel    *telemetry.Registry
	log    *slog.Logger
	ring   *trace.Ring
	slow   time.Duration
	hasSLO bool
}

// NewMux builds a Mux with the trace-ring endpoint already registered.
func NewMux(cfg MuxConfig) *Mux {
	m := &Mux{
		mux:  http.NewServeMux(),
		tel:  telemetry.NewRegistry(),
		log:  cfg.Logger,
		ring: trace.NewRing(cfg.TraceBuffer),
		slow: cfg.SlowQuery,
	}
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	if cfg.SLOObjective > 0 {
		target := cfg.SLOTarget
		if target <= 0 {
			target = 0.99
		}
		m.tel.SetSLO(float64(cfg.SLOObjective)/float64(time.Millisecond), target)
		m.hasSLO = true
	}
	m.Handle(http.MethodGet, TracesPattern, m.handleTraces)
	return m
}

// ServeHTTP dispatches to the registered endpoints; unregistered paths
// get 404.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// Telemetry is the registry holding the per-endpoint counters and latency
// histograms.
func (m *Mux) Telemetry() *telemetry.Registry { return m.tel }

// SLO reports per-endpoint attainment against the latency objective, or
// nil when none is configured.
func (m *Mux) SLO() *telemetry.SLOReport {
	if !m.hasSLO {
		return nil
	}
	return m.tel.Snapshot().SLO
}

// TraceStats is the "traces" section of a /v1/metrics body.
func (m *Mux) TraceStats() map[string]interface{} {
	return map[string]interface{}{
		"buffered": len(m.ring.Snapshot()),
		"capacity": m.ring.Cap(),
		"total":    m.ring.Total(),
	}
}

// Handle registers fn as the instrumented endpoint pattern, answering only
// method.
func (m *Mux) Handle(method, pattern string, fn http.HandlerFunc) {
	ep := m.tel.Endpoint(pattern)
	m.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep.Requests.Inc()

		id := trace.SanitizeRequestID(r.Header.Get(trace.HeaderRequestID))
		if id == "" {
			id = trace.NewRequestID()
		}
		// The trace is named by the endpoint pattern, never the raw URL:
		// query strings can carry customer labels, and /v1/debug/traces
		// serves trace names verbatim.
		parent, hasParent := trace.ParseTraceparent(r.Header.Get(trace.HeaderTraceparent))
		tr := trace.NewChild(id, pattern, parent)
		logger := m.log.With("request_id", id)
		r = r.WithContext(trace.WithLogger(trace.NewContext(r.Context(), tr), logger))

		sw := &statusWriter{ResponseWriter: w}
		// Handlers buffer their JSON and commit in one WriteHeader
		// (WriteJSON), so the ledger is final when this runs. The full
		// X-Cost-* set lets a proxy fold this process's ledger into its own.
		sw.beforeHeader = func() {
			hdr := sw.Header()
			hdr.Set(trace.HeaderRequestID, id)
			trace.EncodeCostHeaders(hdr, tr.Ledger.Snapshot())
			if hasParent {
				if spans := trace.EncodeSpanHeader(tr.Spans()); spans != "" {
					hdr.Set(trace.HeaderSpans, spans)
				}
			}
		}

		if r.Method != method {
			sw.Header().Set("Allow", method)
			WriteErrorDetail(sw, r, http.StatusMethodNotAllowed, ErrorDetail{
				Code:    CodeMethodNotAllowed,
				Message: fmt.Sprintf("method %s not allowed; use %s", r.Method, method),
			})
		} else {
			fn(sw, r)
		}

		elapsed := time.Since(start)
		ep.Latency.Observe(elapsed)
		if sw.status >= http.StatusBadRequest {
			ep.Errors.Inc()
		}
		snap := tr.Finish(sw.status)
		if pattern != TracesPattern {
			m.ring.Put(snap)
		}
		m.logRequest(logger, pattern, snap, elapsed)
	})
}

// logRequest emits one structured line per request. Warn and Error lines
// carry the full cost ledger, plus the winning shard set when the request
// scattered over store nodes, so an outlier is greppable by trace id
// across every process it touched.
func (m *Mux) logRequest(logger *slog.Logger, pattern string, snap *trace.TraceSnapshot, elapsed time.Duration) {
	level, msg := slog.LevelDebug, "request"
	switch {
	case snap.Status >= http.StatusInternalServerError:
		level, msg = slog.LevelError, "request failed"
	case m.slow > 0 && elapsed >= m.slow:
		level, msg = slog.LevelWarn, "slow query"
	}
	if !logger.Enabled(context.Background(), level) {
		return
	}
	args := []any{
		"endpoint", pattern,
		"status", snap.Status,
		"duration_ms", float64(elapsed.Microseconds()) / 1e3,
		"trace_id", snap.TraceID,
	}
	if level >= slog.LevelWarn {
		if shards := winningShards(snap); len(shards) > 0 {
			args = append(args, "shards", shards)
		}
		c := snap.Cost
		args = append(args,
			"disk_accesses", c.DiskAccesses,
			"rows_read", c.RowsRead,
			"pages_touched", c.PagesTouched,
			"cache_hits", c.CacheHits,
			"cache_misses", c.CacheMisses,
			"deltas_probed", c.DeltasProbed,
			"worker_chunks", c.WorkerChunks,
		)
	}
	logger.Log(context.Background(), level, msg, args...)
}

// winningShards extracts the distinct shard numbers whose attempts won, in
// ascending order — the store nodes whose responses formed the answer.
func winningShards(snap *trace.TraceSnapshot) []int {
	seen := map[int]bool{}
	for _, sp := range snap.Spans {
		shard, won := -1, false
		for _, a := range sp.Attrs {
			switch a.Key {
			case "shard":
				if v, ok := a.Value.(int); ok {
					shard = v
				}
			case "outcome":
				won = a.Value == "winner"
			}
		}
		if won && shard >= 0 {
			seen[shard] = true
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// handleTraces serves the ring of recently completed traces, newest first.
// Trace names are endpoint patterns and request IDs pass SanitizeRequestID,
// so nothing here can leak a query string or customer label.
func (m *Mux) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := m.ring.Snapshot()
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"count":    len(traces),
		"capacity": m.ring.Cap(),
		"total":    m.ring.Total(),
		"traces":   traces,
	})
}

// statusWriter records the committed status and runs beforeHeader exactly
// once, immediately before the status line — the last moment response
// headers can still be set.
type statusWriter struct {
	http.ResponseWriter
	status       int
	beforeHeader func()
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.beforeHeader()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}
