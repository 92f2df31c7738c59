package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqstore/internal/api"
	"seqstore/internal/server"
	"seqstore/internal/trace"
)

// TestParseErrorParity sends the same malformed aggregate bodies to a
// store node and to a 2-shard proxy over the same data, as POST
// /v1/aggregate and as a /v1/aggregate/batch item: both must answer with
// the same status (and, where the response carries one, the same code).
func TestParseErrorParity(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	node := server.NewHandler(full, nil, server.Options{QueryWorkers: 1})
	tc := startCluster(t, full, 2, 1, Options{}, nil)

	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	for _, c := range []struct {
		body, code string
	}{
		{`{"f":"median"}`, api.CodeBadRequest},
		{`{"f":"sum","rows":"abc"}`, api.CodeBadRequest},
		{`{"f":"sum","rows":"5:3"}`, api.CodeBadRequest},
		{`{"f":"sum","cols":"zzz"}`, api.CodeBadRequest},
		{`{"f":"sum","rows":"-3"}`, api.CodeBadRequest},
		{`{"f":"sum","rows":"0:41"}`, api.CodeOutOfRange},
		{`{"f":"sum","cols":"16"}`, api.CodeOutOfRange},
		{`{"f":"sum","rows":"5:5"}`, api.CodeEmptySelection},
		{`{"f":"count","rows":"5:5"}`, api.CodeEmptySelection},
	} {
		for name, h := range map[string]http.Handler{"node": node, "proxy": tc.proxy} {
			w := post(h, "/v1/aggregate", c.body)
			if d := envelope(t, w); w.Code != http.StatusBadRequest || d.Code != c.code {
				t.Errorf("%s %s: status %d code %q, want 400 %q", name, c.body, w.Code, d.Code, c.code)
			}
			w = post(h, "/v1/aggregate/batch", `{"queries":[{"f":"sum"},`+c.body+`]}`)
			var batch api.BatchAggregateResponse
			decodeBody(t, w, &batch)
			if w.Code != http.StatusOK || !batch.Errors || len(batch.Items) != 2 ||
				batch.Items[0].Status != http.StatusOK || batch.Items[1].Status != http.StatusBadRequest {
				t.Errorf("%s batch item %s: status %d body %s, want a 400 item beside a 200 one",
					name, c.body, w.Code, w.Body.String())
			}
		}
	}
}

// TestLegacyPathsGone pins the single /v1 surface: the unversioned aliases
// and GET /v1/agg answer 404 on the store node and on the proxy.
func TestLegacyPathsGone(t *testing.T) {
	x := phoneMatrix(t, 40, 16)
	full := compressStore(t, x)
	node := server.NewHandler(full, nil, server.Options{})
	tc := startCluster(t, full, 2, 1, Options{}, nil)
	for _, path := range []string{
		"/info", "/cell?i=1&j=1", "/cells?at=1:1", "/row?i=1", "/rows?i=0:2",
		"/agg?f=sum", "/metrics", "/healthz", "/v1/agg?f=sum",
	} {
		for name, h := range map[string]http.Handler{"node": node, "proxy": tc.proxy} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code != http.StatusNotFound {
				t.Errorf("%s GET %s: status %d, want 404", name, path, w.Code)
			}
		}
	}
}

// TestProxyJoinsInboundTrace: a caller that sends a valid traceparent to
// the proxy finds its trace id on the proxy's trace and on every store
// node's, and gets the proxy's span summary back.
func TestProxyJoinsInboundTrace(t *testing.T) {
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	x := phoneMatrix(t, 48, 20)
	full := compressStore(t, x)
	shardTrace := make(chan string, 2)
	capture := func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/aggregate" {
				sc, _ := trace.ParseTraceparent(r.Header.Get(trace.HeaderTraceparent))
				shardTrace <- sc.TraceID
			}
			h.ServeHTTP(w, r)
		})
	}
	tc := startCluster(t, full, 2, 1, Options{}, capture)

	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader(`{"f":"sum"}`))
	req.Header.Set(trace.HeaderTraceparent, "00-"+traceID+"-b7ad6b7169203331-01")
	tc.proxy.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("aggregate status %d: %s", w.Code, w.Body.String())
	}
	for s := 0; s < 2; s++ {
		if got := <-shardTrace; got != traceID {
			t.Errorf("a store node saw trace id %q, want the caller's %q", got, traceID)
		}
	}
	if spans := trace.ParseSpanHeader(w.Header().Get(trace.HeaderSpans)); len(spans) == 0 {
		t.Error("traced caller got no X-Trace-Spans from the proxy")
	}
	for _, tr := range ringTraces(t, tc) {
		if tr.Name == "/v1/aggregate" && tr.TraceID != traceID {
			t.Errorf("proxy trace id %q, want the caller's %q", tr.TraceID, traceID)
		}
	}
}

// benchmarkServeCell times one /v1/cell round trip over loopback HTTP
// against url, cycling over a fixed set of cells.
func benchmarkServeCell(b *testing.B, url string, n, m int) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	paths := make([]string, 64)
	for k := range paths {
		paths[k] = fmt.Sprintf("%s/v1/cell?i=%d&j=%d", url, (k*7)%n, (k*5)%m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(paths[i%len(paths)])
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeCellNode: /v1/cell on one store node.
func BenchmarkServeCellNode(b *testing.B) {
	full := compressStore(b, phoneMatrix(b, 64, 32))
	srv := httptest.NewServer(server.NewHandler(full, nil, server.Options{CacheRows: 64}))
	defer srv.Close()
	n, m := full.Dims()
	benchmarkServeCell(b, srv.URL, n, m)
}

// BenchmarkServeCellProxy: /v1/cell through the proxy over two store
// nodes — the node round trip plus the proxy hop.
func BenchmarkServeCellProxy(b *testing.B) {
	full := compressStore(b, phoneMatrix(b, 64, 32))
	n, m := full.Dims()
	var topo Topology
	for s := 0; s < 2; s++ {
		slice, err := full.SliceRows(s*n/2, (s+1)*n/2)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(server.NewHandler(slice, nil, server.Options{CacheRows: 64}))
		defer srv.Close()
		topo.Shards = append(topo.Shards, Shard{Addr: srv.URL, Lo: s * n / 2, Hi: (s + 1) * n / 2})
	}
	topo.Shards[1].Hi = -1
	front := httptest.NewServer(NewWithTopology(&topo, Options{}))
	defer front.Close()
	benchmarkServeCell(b, front.URL, n, m)
}
