package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// fakeStore is a fault- and value-injectable store.Store for tests.
type fakeStore struct {
	rows, cols int
	at         func(i, j int) float64
}

func (f *fakeStore) Dims() (int, int) { return f.rows, f.cols }

func (f *fakeStore) Cell(i, j int) (float64, error) {
	if i < 0 || i >= f.rows {
		return 0, fmt.Errorf("fake: row %d out of range %d (%w)", i, f.rows, seqerr.ErrOutOfRange)
	}
	if j < 0 || j >= f.cols {
		return 0, fmt.Errorf("fake: column %d out of range %d (%w)", j, f.cols, seqerr.ErrOutOfRange)
	}
	return f.at(i, j), nil
}

func (f *fakeStore) Row(i int, dst []float64) ([]float64, error) {
	if i < 0 || i >= f.rows {
		return nil, fmt.Errorf("fake: row %d out of range %d (%w)", i, f.rows, seqerr.ErrOutOfRange)
	}
	if cap(dst) < f.cols {
		dst = make([]float64, f.cols)
	}
	dst = dst[:f.cols]
	for j := range dst {
		dst[j] = f.at(i, j)
	}
	return dst, nil
}

func (f *fakeStore) StoredNumbers() int64 { return int64(f.rows * f.cols) }
func (f *fakeStore) Method() store.Method { return store.MethodDCT }

var _ store.Store = (*fakeStore)(nil)

// phoneStore compresses a small phone dataset with SVDD; the raw matrix is
// returned for exact comparisons. Stores are read-only and safe to share,
// so the compression runs once per size and is reused across tests.
var phoneStores sync.Map // n → func() (*core.Store, *linalg.Matrix, error)

func phoneStore(t *testing.T, n int) (*core.Store, *linalg.Matrix) {
	t.Helper()
	build, _ := phoneStores.LoadOrStore(n, sync.OnceValues(func() (interface{}, error) {
		x := dataset.GeneratePhone(dataset.DefaultPhoneConfig(n))
		st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.12})
		if err != nil {
			return nil, err
		}
		return [2]interface{}{st, x}, nil
	}))
	v, err := build.(func() (interface{}, error))()
	if err != nil {
		t.Fatal(err)
	}
	pair := v.([2]interface{})
	return pair[0].(*core.Store), pair[1].(*linalg.Matrix)
}

// errMessage digs the human-readable message out of the unified error
// envelope {"error": {"code", "message", "request_id"}}.
func errMessage(t *testing.T, body map[string]interface{}) string {
	t.Helper()
	env, ok := body["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("body has no error envelope: %v", body)
	}
	msg, _ := env["message"].(string)
	if msg == "" {
		t.Fatalf("error envelope has no message: %v", env)
	}
	if code, _ := env["code"].(string); code == "" {
		t.Fatalf("error envelope has no code: %v", env)
	}
	return msg
}

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Handler, *linalg.Matrix) {
	t.Helper()
	st, x := phoneStore(t, 120)
	h := NewHandler(st, nil, opts)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h, x
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decodeJSON(t, url, resp, wantStatus)
}

// postJSON POSTs a JSON body, checks the status and decodes the response.
func postJSON(t *testing.T, url, body string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return decodeJSON(t, url+" "+body, resp, wantStatus)
}

func decodeJSON(t *testing.T, url string, resp *http.Response, wantStatus int) map[string]interface{} {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type = %q", url, ct)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: decode: %v", url, err)
	}
	return body
}

func TestInfoEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/info", http.StatusOK)
	if body["method"] != "svdd" {
		t.Errorf("method = %v", body["method"])
	}
	if body["rows"].(float64) != 120 || body["cols"].(float64) != 366 {
		t.Errorf("dims = %v×%v", body["rows"], body["cols"])
	}
	if sr := body["spaceRatio"].(float64); sr <= 0 || sr > 0.12+1e-9 {
		t.Errorf("spaceRatio = %v", sr)
	}
}

func TestCellEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/cell?i=5&j=100", http.StatusOK)
	if body["i"].(float64) != 5 || body["j"].(float64) != 100 {
		t.Errorf("echoed coords wrong: %v", body)
	}
	v, ok := body["value"].(float64)
	if !ok {
		t.Fatal("no numeric value")
	}
	if math.Abs(v-x.At(5, 100)) > 0.5*math.Abs(x.At(5, 100))+50 {
		t.Errorf("cell value %v far from actual %v", v, x.At(5, 100))
	}
	// Errors.
	getJSON(t, srv.URL+"/v1/cell?i=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=abc&j=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=99999&j=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?i=0&j=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?row=Nobody&col=We", http.StatusBadRequest)
}

func TestRowEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/row?i=7", http.StatusOK)
	vals := body["values"].([]interface{})
	if len(vals) != 366 {
		t.Errorf("row length %d", len(vals))
	}
	getJSON(t, srv.URL+"/v1/row?i=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/row", http.StatusBadRequest)
}

func TestAggEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := postJSON(t, srv.URL+"/v1/aggregate", `{"f":"avg","rows":"0:50","cols":"0:30"}`, http.StatusOK)
	got := body["value"].(float64)
	want, err := query.EvaluateMatrix(x, query.Avg,
		query.Selection{Rows: query.All(50), Cols: query.All(30)})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 0.10 {
		t.Errorf("agg value %.4f vs exact %.4f (%.1f%% off)", got, want, 100*rel)
	}
	if body["rows"].(float64) != 50 || body["cols"].(float64) != 30 {
		t.Errorf("selection sizes echoed wrong: %v", body)
	}
	// Default f and default selections (all rows/cols).
	all := postJSON(t, srv.URL+"/v1/aggregate", `{}`, http.StatusOK)
	if all["f"] != "avg" {
		t.Errorf("default f = %v", all["f"])
	}
	if all["rows"].(float64) != 120 || all["cols"].(float64) != 366 {
		t.Errorf("default selection = %v×%v", all["rows"], all["cols"])
	}
	// Errors: unknown aggregate, inverted range, garbage, negatives.
	postJSON(t, srv.URL+"/v1/aggregate", `{"f":"median"}`, http.StatusBadRequest)
	postJSON(t, srv.URL+"/v1/aggregate", `{"rows":"9:1"}`, http.StatusBadRequest)
	postJSON(t, srv.URL+"/v1/aggregate", `{"cols":"zzz"}`, http.StatusBadRequest)
	postJSON(t, srv.URL+"/v1/aggregate", `{"rows":"-3"}`, http.StatusBadRequest)
	postJSON(t, srv.URL+"/v1/aggregate", `{"rows":"0:10","cols":"999:1000"}`, http.StatusBadRequest)
}

// TestEmptySelectionIs400 pins the satellite fix: an empty (but
// syntactically valid) selection maps to 400, not 500.
func TestEmptySelectionIs400(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := postJSON(t, srv.URL+"/v1/aggregate", `{"rows":"5:5"}`, http.StatusBadRequest)
	if !strings.Contains(errMessage(t, body), "empty selection") {
		t.Errorf("error = %v, want mention of empty selection", body["error"])
	}
}

func TestCountAggExact(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := postJSON(t, srv.URL+"/v1/aggregate", `{"f":"count","rows":"0:10","cols":"0:10"}`, http.StatusOK)
	if body["value"].(float64) != 100 {
		t.Errorf("count = %v", body["value"])
	}
}

func TestCellByLabelEndpoint(t *testing.T) {
	x := dataset.Toy()
	st, err := core.Compress(matio.NewMem(x), core.Options{Budget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	labels := &store.Labels{Rows: dataset.ToyRowLabels, Cols: dataset.ToyColLabels}
	srv := httptest.NewServer(NewHandler(st, labels, Options{}))
	defer srv.Close()
	body := getJSON(t, srv.URL+"/v1/cell?row=KLM+Co.&col=We", http.StatusOK)
	if v := body["value"].(float64); math.Abs(v-x.At(3, 0)) > 1e-6 {
		t.Errorf("KLM/We = %v, want %v", v, x.At(3, 0))
	}
	getJSON(t, srv.URL+"/v1/cell?row=Nobody&col=We", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cell?row=KLM+Co.&col=Zz", http.StatusBadRequest)
}

// TestMethodNotAllowed: non-GET verbs get 405 with an Allow header on
// every read endpoint.
func TestMethodNotAllowed(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	for _, path := range []string{"/v1/info", "/v1/cell", "/v1/cells", "/v1/row", "/v1/rows", "/v1/metrics", "/v1/healthz"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead} {
			req, err := http.NewRequest(method, srv.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s: Allow = %q, want GET", method, path, allow)
			}
		}
	}
}

// TestNonFiniteValues pins the writeJSON fix: NaN/±Inf reconstructions
// serialize as null with a "nonfinite" marker and a 200 — never a
// truncated response or a spurious 500.
func TestNonFiniteValues(t *testing.T) {
	fs := &fakeStore{rows: 3, cols: 4, at: func(i, j int) float64 {
		switch {
		case i == 0 && j == 0:
			return math.NaN()
		case i == 0 && j == 1:
			return math.Inf(1)
		case i == 0 && j == 2:
			return math.Inf(-1)
		}
		return float64(i*10 + j)
	}}
	srv := httptest.NewServer(NewHandler(fs, nil, Options{}))
	defer srv.Close()

	body := getJSON(t, srv.URL+"/v1/cell?i=0&j=0", http.StatusOK)
	if body["value"] != nil || body["nonfinite"] != "NaN" {
		t.Errorf("NaN cell: %v", body)
	}
	body = getJSON(t, srv.URL+"/v1/cell?i=0&j=1", http.StatusOK)
	if body["value"] != nil || body["nonfinite"] != "+Inf" {
		t.Errorf("+Inf cell: %v", body)
	}
	body = getJSON(t, srv.URL+"/v1/cell?i=0&j=2", http.StatusOK)
	if body["value"] != nil || body["nonfinite"] != "-Inf" {
		t.Errorf("-Inf cell: %v", body)
	}
	// A finite cell has no marker.
	body = getJSON(t, srv.URL+"/v1/cell?i=1&j=1", http.StatusOK)
	if _, marked := body["nonfinite"]; marked {
		t.Errorf("finite cell carries marker: %v", body)
	}
	// Rows map non-finite cells to null and count them.
	body = getJSON(t, srv.URL+"/v1/row?i=0", http.StatusOK)
	vals := body["values"].([]interface{})
	if vals[0] != nil || vals[1] != nil || vals[2] != nil || vals[3] == nil {
		t.Errorf("row values = %v", vals)
	}
	if body["nonfinite"].(float64) != 3 {
		t.Errorf("nonfinite count = %v, want 3", body["nonfinite"])
	}
	// NaN aggregates: avg over a NaN cell is NaN → null + marker, 200.
	body = postJSON(t, srv.URL+"/v1/aggregate", `{"f":"avg","rows":"0:1","cols":"0:1"}`, http.StatusOK)
	if body["value"] != nil || body["nonfinite"] != "NaN" {
		t.Errorf("NaN agg: %v", body)
	}
}

func TestCellsBatchEndpoint(t *testing.T) {
	srv, _, x := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/cells?at=5:100,5:101&at=6:100", http.StatusOK)
	if body["count"].(float64) != 3 {
		t.Fatalf("count = %v", body["count"])
	}
	cells := body["cells"].([]interface{})
	first := cells[0].(map[string]interface{})
	if first["i"].(float64) != 5 || first["j"].(float64) != 100 {
		t.Errorf("first cell coords: %v", first)
	}
	if v := first["value"].(float64); math.Abs(v-x.At(5, 100)) > 0.5*math.Abs(x.At(5, 100))+50 {
		t.Errorf("first cell value %v vs actual %v", v, x.At(5, 100))
	}
	// Errors.
	getJSON(t, srv.URL+"/v1/cells", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=a:b", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/cells?at=99999:0", http.StatusBadRequest)
}

func TestCellsBatchLimit(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{MaxBatchCells: 2})
	getJSON(t, srv.URL+"/v1/cells?at=0:0,0:1", http.StatusOK)
	body := getJSON(t, srv.URL+"/v1/cells?at=0:0,0:1,0:2", http.StatusBadRequest)
	if !strings.Contains(errMessage(t, body), "exceeds limit") {
		t.Errorf("error = %v", body["error"])
	}
}

func TestRowsBatchEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/rows?i=0:3,7", http.StatusOK)
	if body["count"].(float64) != 4 {
		t.Fatalf("count = %v", body["count"])
	}
	rows := body["rows"].([]interface{})
	last := rows[3].(map[string]interface{})
	if last["i"].(float64) != 7 {
		t.Errorf("last row index: %v", last["i"])
	}
	if len(last["values"].([]interface{})) != 366 {
		t.Errorf("row length %d", len(last["values"].([]interface{})))
	}
	// Errors: missing spec, empty spec, negative, out of range, over limit.
	getJSON(t, srv.URL+"/v1/rows", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=4:4", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/v1/rows?i=99999", http.StatusBadRequest)
}

func TestRowsBatchLimit(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{MaxBatchRows: 3})
	getJSON(t, srv.URL+"/v1/rows?i=0:3", http.StatusOK)
	body := getJSON(t, srv.URL+"/v1/rows?i=0:4", http.StatusBadRequest)
	if !strings.Contains(errMessage(t, body), "exceeds limit") {
		t.Errorf("error = %v", body["error"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{CacheRows: 64})
	// Generate some traffic first: hits, misses, an error.
	getJSON(t, srv.URL+"/v1/cell?i=5&j=100", http.StatusOK)
	getJSON(t, srv.URL+"/v1/cell?i=5&j=101", http.StatusOK)
	getJSON(t, srv.URL+"/v1/cell?i=99999&j=0", http.StatusBadRequest)
	postJSON(t, srv.URL+"/v1/aggregate", `{"f":"sum","rows":"0:10","cols":"0:10"}`, http.StatusOK)

	body := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	eps := body["endpoints"].(map[string]interface{})
	cell := eps["/v1/cell"].(map[string]interface{})
	if cell["requests"].(float64) != 3 || cell["errors"].(float64) != 1 {
		t.Errorf("/v1/cell endpoint metrics: %v", cell)
	}
	lat := cell["latency"].(map[string]interface{})
	if lat["count"].(float64) != 3 || lat["p50_ms"].(float64) < 0 {
		t.Errorf("/v1/cell latency: %v", lat)
	}
	if _, ok := lat["buckets"]; !ok {
		t.Errorf("latency histogram has no buckets: %v", lat)
	}
	cache := body["cache"].(map[string]interface{})
	if cache["enabled"] != true {
		t.Errorf("cache disabled in metrics: %v", cache)
	}
	// Second cell of the same row was a hit.
	if cache["hits"].(float64) < 1 || cache["misses"].(float64) < 1 {
		t.Errorf("cache counters: %v", cache)
	}
	if hr := cache["hit_rate"].(float64); hr <= 0 || hr >= 1 {
		t.Errorf("hit_rate = %v", hr)
	}
	// Disk-access counters of the SVDD U backing are present.
	io := body["io"].(map[string]interface{})
	if io["row_reads"].(float64) <= 0 {
		t.Errorf("io counters: %v", io)
	}
	if _, ok := body["svdd"]; !ok {
		t.Errorf("svdd section missing: %v", body)
	}
}

// TestMetricsOneAccessPerCell verifies the paper's cost-model claim
// through the serving stack: with the cache disabled, N distinct /cell
// requests cost exactly N U-row reads.
func TestMetricsOneAccessPerCell(t *testing.T) {
	st, _ := phoneStore(t, 60)
	h := NewHandler(st, nil, Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	us := query.UStats(st)
	if us == nil {
		t.Fatal("no U stats on svdd store")
	}
	us.Reset()
	const n = 17
	for i := 0; i < n; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/cell?i=%d&j=%d", srv.URL, i, i*3), http.StatusOK)
	}
	if got := us.Snapshot().RowReads; got != n {
		t.Errorf("%d cell queries cost %d U-row reads, want exactly %d", n, got, n)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	body := getJSON(t, srv.URL+"/v1/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Errorf("healthz: %v", body)
	}
}

// TestCacheServesRepeatedRows checks the cache fast path end to end: the
// same row requested twice is reconstructed once, and values agree with
// the uncached path.
func TestCacheServesRepeatedRows(t *testing.T) {
	st, _ := phoneStore(t, 60)
	cached := NewHandler(st, nil, Options{CacheRows: 16})
	plain := NewHandler(st, nil, Options{})
	csrv := httptest.NewServer(cached)
	defer csrv.Close()
	psrv := httptest.NewServer(plain)
	defer psrv.Close()

	want := getJSON(t, psrv.URL+"/v1/row?i=9", http.StatusOK)
	for range [3]int{} {
		got := getJSON(t, csrv.URL+"/v1/row?i=9", http.StatusOK)
		if fmt.Sprint(got["values"]) != fmt.Sprint(want["values"]) {
			t.Fatal("cached row differs from uncached row")
		}
	}
	hits, misses, size, capacity := cached.CacheStats()
	if misses != 1 || hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if size != 1 || capacity < 16 {
		t.Errorf("size=%d capacity=%d", size, capacity)
	}
}

// corruptStore fails every read with a corruption error, as a store backed
// by a damaged file would.
type corruptStore struct{ fakeStore }

func (c *corruptStore) Cell(i, j int) (float64, error) {
	return 0, seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
}

func (c *corruptStore) Row(i int, dst []float64) ([]float64, error) {
	return nil, seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch")
}

// TestCorruptStoreReturns503 pins the corruption contract at the serving
// layer: a store that detects damage yields 503 (not 500, not wrong data),
// the store_corruptions counter on /metrics increments per surfaced error,
// and endpoints that do not touch the damaged pages keep serving.
func TestCorruptStoreReturns503(t *testing.T) {
	cs := &corruptStore{fakeStore{rows: 4, cols: 4, at: func(i, j int) float64 { return 0 }}}
	srv := httptest.NewServer(NewHandler(cs, nil, Options{}))
	defer srv.Close()

	body := getJSON(t, srv.URL+"/v1/cell?i=0&j=0", http.StatusServiceUnavailable)
	if !strings.Contains(errMessage(t, body), "checksum") {
		t.Errorf("error = %v", body["error"])
	}
	getJSON(t, srv.URL+"/v1/row?i=1", http.StatusServiceUnavailable)
	getJSON(t, srv.URL+"/v1/row?i=1", http.StatusServiceUnavailable)

	// Health and metadata endpoints stay up: corruption is not an outage.
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK)
	getJSON(t, srv.URL+"/v1/info", http.StatusOK)

	metrics := getJSON(t, srv.URL+"/v1/metrics", http.StatusOK)
	if n := metrics["store_corruptions"].(float64); n != 3 {
		t.Errorf("store_corruptions = %v, want 3", n)
	}
}

// TestCancelledRequestIs499 pins the context satellite: a client that goes
// away mid-aggregation is recorded with the nginx-convention 499 status,
// not a 500.
func TestCancelledRequestIs499(t *testing.T) {
	srv, h, _ := newTestServer(t, Options{})
	_ = srv
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader(`{"f":"avg"}`))
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // already gone before the query starts
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != api.StatusClientClosedRequest {
		t.Errorf("cancelled /v1/aggregate: status %d, want %d", rec.Code, api.StatusClientClosedRequest)
	}
}
