package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"seqstore/internal/trace"
)

// newTestMux registers one GET endpoint whose handler charges the ledger
// before committing and once more after, so tests can see when the cost
// headers were computed.
func newTestMux(t *testing.T) *Mux {
	t.Helper()
	m := NewMux(MuxConfig{})
	m.Handle(http.MethodGet, "/v1/test", func(w http.ResponseWriter, r *http.Request) {
		led := trace.LedgerFrom(r.Context())
		led.AddDiskAccesses(3)
		trace.StartSpan(r.Context(), "work").End()
		w.Write([]byte("body"))  // implicit 200
		led.AddDiskAccesses(100) // after the commit: must not reach the headers
	})
	return m
}

func serve(m *Mux, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	m.ServeHTTP(w, req)
	return w
}

func ringTraces(t *testing.T, m *Mux) []trace.TraceSnapshot {
	t.Helper()
	w := serve(m, http.MethodGet, TracesPattern, nil)
	var body struct {
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Traces
}

func TestMuxRequestID(t *testing.T) {
	m := newTestMux(t)
	w := serve(m, http.MethodGet, "/v1/test", map[string]string{trace.HeaderRequestID: "client.id-42"})
	if got := w.Header().Get(trace.HeaderRequestID); got != "client.id-42" {
		t.Errorf("well-formed id echoed as %q", got)
	}
	for _, bad := range []string{"", "bad id! not/hex", strings.Repeat("a", 65)} {
		w := serve(m, http.MethodGet, "/v1/test", map[string]string{trace.HeaderRequestID: bad})
		if got := w.Header().Get(trace.HeaderRequestID); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
			t.Errorf("id %q replaced by %q, want a fresh 16-hex id", bad, got)
		}
	}
}

func TestMuxMethodNotAllowed(t *testing.T) {
	m := newTestMux(t)
	m.Handle(http.MethodPost, "/v1/write", func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran for a wrong verb")
	})
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodPost, "/v1/test", http.MethodGet},
		{http.MethodDelete, "/v1/test", http.MethodGet},
		{http.MethodGet, "/v1/write", http.MethodPost},
	} {
		w := serve(m, c.method, c.path, nil)
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d Allow %q, want 405 Allow %s",
				c.method, c.path, w.Code, w.Header().Get("Allow"), c.allow)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: envelope %s", c.method, c.path, w.Body.String())
		}
		if env.Error.RequestID == "" || env.Error.RequestID != w.Header().Get(trace.HeaderRequestID) {
			t.Errorf("%s %s: envelope request id %q, header %q",
				c.method, c.path, env.Error.RequestID, w.Header().Get(trace.HeaderRequestID))
		}
	}
	if w := serve(m, http.MethodGet, "/v1/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("unregistered path: status %d, want 404", w.Code)
	}
}

// TestMuxCostHeadersBeforeBody pins the header ordering: the X-Cost-*
// ledger is the one at the moment the status line was committed — work a
// handler charges after writing cannot reach the client — and the trace in
// the ring keeps the final ledger.
func TestMuxCostHeadersBeforeBody(t *testing.T) {
	m := newTestMux(t)
	w := serve(m, http.MethodGet, "/v1/test", nil)
	if w.Code != http.StatusOK || w.Body.String() != "body" {
		t.Fatalf("status %d body %q", w.Code, w.Body.String())
	}
	if got := w.Header().Get(trace.HeaderDiskAccesses); got != "3" {
		t.Errorf("%s = %q, want the ledger at commit time (3)", trace.HeaderDiskAccesses, got)
	}
	if cost := trace.ParseCostHeaders(w.Header()); cost.DiskAccesses != 3 {
		t.Errorf("parsed cost headers %+v", cost)
	}
	traces := ringTraces(t, m)
	if len(traces) != 1 || traces[0].Cost.DiskAccesses != 103 || traces[0].Status != http.StatusOK {
		t.Fatalf("ring = %+v, want one finished /v1/test trace with the full ledger", traces)
	}
}

// TestMuxTraceRingSkipsItself: requests to the trace endpoint never enter
// the ring they serve.
func TestMuxTraceRingSkipsItself(t *testing.T) {
	m := newTestMux(t)
	serve(m, http.MethodGet, "/v1/test", nil)
	serve(m, http.MethodGet, TracesPattern, nil)
	serve(m, http.MethodGet, TracesPattern, nil)
	traces := ringTraces(t, m)
	if len(traces) != 1 || traces[0].Name != "/v1/test" {
		t.Fatalf("ring holds %+v, want only the /v1/test trace", traces)
	}
	if got := m.TraceStats()["total"]; got != uint64(1) {
		t.Errorf("trace stats total = %v, want 1", got)
	}
}

// TestMuxTraceparent: a valid inbound traceparent is adopted (same trace
// id, X-Trace-Spans returned); a malformed one degrades to a fresh root
// and the response carries no span summary.
func TestMuxTraceparent(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00-" + traceID + "-00f067aa0ba902b7-01"
	m := newTestMux(t)
	w := serve(m, http.MethodGet, "/v1/test", map[string]string{trace.HeaderTraceparent: parent})
	spans := trace.ParseSpanHeader(w.Header().Get(trace.HeaderSpans))
	if len(spans) != 1 || spans[0].Name != "work" {
		t.Errorf("traced caller got span summary %+v, want the handler's span", spans)
	}
	if tr := ringTraces(t, m)[0]; tr.TraceID != traceID {
		t.Errorf("trace id %q, want the adopted %q", tr.TraceID, traceID)
	}

	for _, bad := range []string{
		"00-" + traceID + "-00f067aa0ba902b7",                     // missing flags
		"01-" + traceID + "-00f067aa0ba902b7-01",                  // unknown version
		"00-" + strings.ToUpper(traceID) + "-00f067aa0ba902b7-01", // uppercase hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"garbage",
	} {
		w := serve(m, http.MethodGet, "/v1/test", map[string]string{trace.HeaderTraceparent: bad})
		if w.Code != http.StatusOK {
			t.Errorf("traceparent %q failed the request: %d", bad, w.Code)
		}
		if h := w.Header().Get(trace.HeaderSpans); h != "" {
			t.Errorf("traceparent %q: untraced caller got spans %q", bad, h)
		}
		tr := ringTraces(t, m)[0]
		if tr.TraceID == traceID || !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(tr.TraceID) {
			t.Errorf("traceparent %q: trace id %q, want a fresh root", bad, tr.TraceID)
		}
	}
}
