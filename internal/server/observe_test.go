package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"seqstore/internal/api"
	"seqstore/internal/telemetry"
)

// updateGolden regenerates the /metrics schema golden files:
//
//	go test ./internal/server/ -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// get issues a GET and returns the response with its body read.
func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	return send(t, http.MethodGet, url, "", hdr)
}

// post issues a JSON POST and returns the response with its body read.
func post(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	return send(t, http.MethodPost, url, body, hdr)
}

func send(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestCostHeaderColdWarm pins the paper's one-access claim live over HTTP:
// a cold cell request costs exactly one disk access (one U-row fetch), and
// the warm repeat — served from the row cache — costs zero.
func TestCostHeaderColdWarm(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{CacheRows: 64})
	url := srv.URL + "/v1/cell?i=7&j=100"

	resp, _ := get(t, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cost-Disk-Accesses"); got != "1" {
		t.Errorf("cold cell: X-Cost-Disk-Accesses = %q, want 1", got)
	}

	resp, _ = get(t, url, nil)
	if got := resp.Header.Get("X-Cost-Disk-Accesses"); got != "0" {
		t.Errorf("warm cell: X-Cost-Disk-Accesses = %q, want 0", got)
	}

	// The trace ring tells the same story: newest-first, the warm request
	// shows a cache hit and no disk access, the cold one the opposite.
	_, body := get(t, srv.URL+"/v1/debug/traces", nil)
	var traces struct {
		Traces []struct {
			Name string `json:"name"`
			Cost struct {
				DiskAccesses int64 `json:"disk_accesses"`
				CacheHits    int64 `json:"cache_hits"`
				CacheMisses  int64 `json:"cache_misses"`
				RowsRead     int64 `json:"rows_read"`
			} `json:"cost"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) < 2 {
		t.Fatalf("ring holds %d traces, want >= 2", len(traces.Traces))
	}
	warm, cold := traces.Traces[0], traces.Traces[1]
	if warm.Name != "/v1/cell" || cold.Name != "/v1/cell" {
		t.Fatalf("trace names = %q, %q", warm.Name, cold.Name)
	}
	if warm.Cost.DiskAccesses != 0 || warm.Cost.CacheHits != 1 {
		t.Errorf("warm trace cost = %+v, want 0 disk accesses, 1 cache hit", warm.Cost)
	}
	if cold.Cost.DiskAccesses != 1 || cold.Cost.CacheMisses != 1 || cold.Cost.RowsRead != 1 {
		t.Errorf("cold trace cost = %+v, want exactly 1 disk access, 1 miss, 1 row", cold.Cost)
	}
}

// TestRequestIDPropagation: a well-formed client ID is echoed on the
// response and lands on the trace of a worker-sharded aggregate; a
// malformed one is replaced with a fresh 16-hex ID.
func TestRequestIDPropagation(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{QueryWorkers: 4})

	const id = "obs-test.request-42"
	resp, _ := post(t, srv.URL+"/v1/aggregate", `{"f":"sum"}`, map[string]string{"X-Request-Id": id})
	if got := resp.Header.Get("X-Request-Id"); got != id {
		t.Errorf("X-Request-Id = %q, want echo of %q", got, id)
	}

	resp, _ = get(t, srv.URL+"/v1/healthz", map[string]string{"X-Request-Id": "bad id! not/hex"})
	fresh := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(fresh) {
		t.Errorf("malformed client ID not replaced: got %q", fresh)
	}

	_, body := get(t, srv.URL+"/v1/debug/traces", nil)
	var traces struct {
		Traces []struct {
			RequestID string `json:"request_id"`
			Name      string `json:"name"`
			Cost      struct {
				WorkerChunks int64 `json:"worker_chunks"`
			} `json:"cost"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces.Traces {
		if tr.RequestID != id {
			continue
		}
		found = true
		if tr.Name != "/v1/aggregate" {
			t.Errorf("trace name = %q", tr.Name)
		}
		// The ledger was fed from inside the query workers: the client's
		// request ID reached them through the context.
		if tr.Cost.WorkerChunks < 1 {
			t.Errorf("agg trace has no worker chunks: ledger not propagated")
		}
		hasEval := false
		for _, sp := range tr.Spans {
			if sp.Name == "evaluate" {
				hasEval = true
			}
		}
		if !hasEval {
			t.Errorf("agg trace missing evaluate span: %+v", tr.Spans)
		}
	}
	if !found {
		t.Fatalf("trace for request %q not in ring", id)
	}
}

// TestTracesRedaction: query strings (which can carry customer labels)
// never appear on /v1/debug/traces — traces are named by endpoint pattern
// only — and the traces endpoint stays out of its own ring.
func TestTracesRedaction(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	const marker = "SECRET-CUSTOMER-XYZ"
	get(t, srv.URL+"/v1/cell?i=5&j=100&customer="+marker, nil)
	get(t, srv.URL+"/v1/debug/traces", nil)
	_, body := get(t, srv.URL+"/v1/debug/traces", nil)
	s := string(body)
	if strings.Contains(s, marker) {
		t.Error("trace output leaked a query-string value")
	}
	if strings.Contains(s, "?") {
		t.Error("trace output contains a raw query string")
	}
	if strings.Contains(s, `"name":"`+api.TracesPattern+`"`) {
		t.Error("traces endpoint recorded itself in the ring")
	}
}

// TestMetricsPromLive scrapes the live ?format=prom exposition and runs it
// through the strict parser: well-formed families, monotone cumulative
// histograms, and the per-shard cache counters present after traffic.
func TestMetricsPromLive(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{CacheRows: 64})
	get(t, srv.URL+"/v1/cell?i=3&j=9", nil)
	get(t, srv.URL+"/v1/cell?i=3&j=9", nil)

	resp, body := get(t, srv.URL+"/v1/metrics?format=prom", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	pm, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("live exposition does not parse: %v", err)
	}
	if v := pm.Get("seqstore_go_goroutines"); len(v) != 1 || v[0] < 1 {
		t.Errorf("seqstore_go_goroutines = %v", v)
	}
	if v := pm.Get("seqstore_uptime_seconds"); len(v) != 1 {
		t.Errorf("seqstore_uptime_seconds = %v", v)
	}
	var hits, misses float64
	for _, s := range pm.Samples {
		if strings.HasPrefix(s.Name, "seqstore_cache_shard_") {
			switch {
			case strings.HasSuffix(s.Name, "_hits_total"):
				hits += s.Value
			case strings.HasSuffix(s.Name, "_misses_total"):
				misses += s.Value
			}
		}
	}
	if hits < 1 || misses < 1 {
		t.Errorf("per-shard cache counters not live: hits=%v misses=%v", hits, misses)
	}
	if pm.Types["seqstore_request_duration_seconds"] != "histogram" {
		t.Errorf("request duration family type = %q", pm.Types["seqstore_request_duration_seconds"])
	}
}

// --- Golden schema pinning (the `make metrics-golden` stage) ---------------

// jsonSchema flattens a decoded JSON body into sorted key paths with type
// suffixes. Map keys beginning with "/" (endpoint patterns) collapse to
// "*" and arrays descend into their first element, so the schema is stable
// across traffic and store sizes while still catching shape regressions.
func jsonSchema(v interface{}, prefix string, out map[string]string) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, child := range t {
			if strings.HasPrefix(k, "/") {
				k = "*"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			jsonSchema(child, p, out)
		}
	case []interface{}:
		if len(t) > 0 {
			jsonSchema(t[0], prefix+"[]", out)
		} else {
			out[prefix+"[]"] = "empty"
		}
	case string:
		out[prefix] = "string"
	case float64:
		out[prefix] = "number"
	case bool:
		out[prefix] = "bool"
	case nil:
		out[prefix] = "null"
	default:
		out[prefix] = fmt.Sprintf("%T", t)
	}
}

func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if text != string(want) {
		t.Errorf("%s schema drifted from golden; diff the output or rerun with -update-golden\ngot:\n%s\nwant:\n%s",
			name, text, want)
	}
}

// TestMetricsJSONSchemaGolden pins the key structure of the /v1/metrics
// JSON body against testdata/metrics_json_schema.golden.
func TestMetricsJSONSchemaGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{CacheRows: 64})
	get(t, srv.URL+"/v1/cell?i=1&j=1", nil) // make latency fields non-degenerate
	body := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	schema := make(map[string]string)
	jsonSchema(map[string]interface{}(body), "", schema)
	lines := make([]string, 0, len(schema))
	for k, typ := range schema {
		lines = append(lines, k+" "+typ)
	}
	checkGolden(t, "metrics_json_schema.golden", lines)
}

// TestMetricsPromSchemaGolden pins the family names and types of the
// Prometheus exposition against testdata/metrics_prom_schema.golden.
func TestMetricsPromSchemaGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{CacheRows: 64})
	get(t, srv.URL+"/v1/cell?i=1&j=1", nil)
	_, body := get(t, srv.URL+"/v1/metrics?format=prom", nil)
	pm, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(pm.Types))
	for name, typ := range pm.Types {
		lines = append(lines, name+" "+typ)
	}
	checkGolden(t, "metrics_prom_schema.golden", lines)
}
