package api

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"seqstore/internal/exact"
	"seqstore/internal/ingest"
	"seqstore/internal/query"
	"seqstore/internal/seqerr"
)

// TestClassifyTable drives every row of the taxonomy table, wrapped the
// way callers wrap errors, plus the unrecognized-error fallback.
func TestClassifyTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{Invalidf("rows: bad index %q", "x"), http.StatusBadRequest, CodeBadRequest},
		{fmt.Errorf("query: row 9 out of range 4 (%w)", seqerr.ErrOutOfRange), http.StatusBadRequest, CodeOutOfRange},
		{query.ErrEmptySelection, http.StatusBadRequest, CodeEmptySelection},
		{fmt.Errorf("append: %w", ingest.ErrNotFinite), http.StatusBadRequest, CodeBadRequest},
		{fmt.Errorf("open: %w", ingest.ErrNotWritable), http.StatusForbidden, CodeNotWritable},
		{fmt.Errorf("shard 1: dial refused (%w)", seqerr.ErrUnavailable), http.StatusServiceUnavailable, CodeUnavailable},
		{seqerr.Corrupt("/data/p.sqz", 3, 12345, "page checksum mismatch"), http.StatusServiceUnavailable, CodeCorrupt},
		{fmt.Errorf("load: %w", seqerr.ErrBadVersion), http.StatusInternalServerError, CodeBadVersion},
		{fmt.Errorf("evaluate: %w", context.Canceled), StatusClientClosedRequest, CodeClientClosed},
		{fmt.Errorf("evaluate: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, CodeTimeout},
		{errors.New("disk on fire"), http.StatusInternalServerError, CodeInternal},
	}
	if len(cases) != len(errTable)+1 {
		t.Fatalf("%d cases for %d table rows: add a case for every row", len(cases), len(errTable))
	}
	for _, c := range cases {
		status, code := Classify(c.err)
		if status != c.status || code != c.code {
			t.Errorf("Classify(%v) = %d %q, want %d %q", c.err, status, code, c.status, c.code)
		}
	}
	// Marking an error as the client's keeps its message.
	if got := Invalidf("rows: %s", "bad").Error(); got != "rows: bad" {
		t.Errorf("Invalidf message = %q", got)
	}
}

// TestWriteJSONEncodeFailure: a body encoding/json rejects yields a clean
// 500 envelope, never a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, body := range []interface{}{math.NaN(), map[string]interface{}{"c": make(chan int)}} {
		w := httptest.NewRecorder()
		WriteJSON(w, http.StatusOK, body)
		if w.Code != http.StatusInternalServerError {
			t.Errorf("%T: status %d, want 500", body, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%T: Content-Type %q", body, ct)
		}
		if !strings.Contains(w.Body.String(), `"code":"internal"`) {
			t.Errorf("%T: body %q", body, w.Body.String())
		}
	}
}

func TestFloatNumValueRoundTrip(t *testing.T) {
	for _, v := range []float64{0, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		val, marker := Float(v)
		if (marker == "") != (val != nil) {
			t.Fatalf("Float(%v) = (%v, %q): exactly one of value and marker must be set", v, val, marker)
		}
		got := NumValue(val, marker)
		if math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
	if !math.IsNaN(NumValue(nil, "")) || !math.IsNaN(NumValue(nil, "bogus")) {
		t.Error("a nil value without a known marker must decode as NaN")
	}
}

// TestAggregateRequestParse pins the shared parse path both servers run:
// unparseable input is bad_request, a parseable but empty or out-of-range
// selection carries its own code.
func TestAggregateRequestParse(t *testing.T) {
	a, err := AggregateRequest{Rows: "1:3,5", Cols: ""}.Parse(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.F != "avg" || a.Agg != query.Avg || len(a.Sel.Rows) != 3 || len(a.Sel.Cols) != 4 {
		t.Fatalf("parsed %+v", a)
	}
	for _, c := range []struct {
		req  AggregateRequest
		code string
	}{
		{AggregateRequest{F: "median"}, CodeBadRequest},
		{AggregateRequest{F: "sum", Rows: "abc"}, CodeBadRequest},
		{AggregateRequest{F: "sum", Rows: "5:3"}, CodeBadRequest},
		{AggregateRequest{F: "sum", Cols: "-1"}, CodeBadRequest},
		{AggregateRequest{F: "sum", Rows: "0:11"}, CodeOutOfRange},
		{AggregateRequest{F: "sum", Cols: "4"}, CodeOutOfRange},
		{AggregateRequest{F: "sum", Rows: "5:5"}, CodeEmptySelection},
	} {
		_, err := c.req.Parse(10, 4)
		if _, code := Classify(err); code != c.code {
			t.Errorf("%+v: %v classified %q, want %q", c.req, err, code, c.code)
		}
	}
}

func TestParseCellsAndRows(t *testing.T) {
	coords, err := ParseCells([]string{"1:2, 3:4", "5:6"}, 3)
	if err != nil || len(coords) != 3 || coords[1] != [2]int{3, 4} {
		t.Fatalf("ParseCells = %v, %v", coords, err)
	}
	for _, specs := range [][]string{nil, {"5"}, {"a:b"}, {"1:1,2:2,3:3,4:4"}} {
		if _, err := ParseCells(specs, 3); !errors.Is(err, ErrBadRequest) {
			t.Errorf("ParseCells(%q) = %v, want a bad request", specs, err)
		}
	}
	idx, err := ParseRows("0:2,7", 10, 3)
	if err != nil || len(idx) != 3 {
		t.Fatalf("ParseRows = %v, %v", idx, err)
	}
	for _, spec := range []string{"", " ", "4:4", "-1", "0:4"} {
		if _, err := ParseRows(spec, 10, 3); !errors.Is(err, ErrBadRequest) {
			t.Errorf("ParseRows(%q) = %v, want a bad request", spec, err)
		}
	}
}

// partialSeeds are valid encodings of both partial shapes.
func partialSeeds(t testing.TB) []string {
	cells := &query.Partial{Agg: query.Min, NumCells: 6, N: 6, Min: -2, Max: math.NaN()}
	cells.Sum.Add(3)
	cells.SumSq.Add(9)
	const k = 2
	fact := &query.Partial{
		Agg: query.StdDev, Factored: true, WantSq: true, HasCorr: true, NumCells: 8, K: k,
		RowSum: make([]exact.Sum, k), ColSum: make([]exact.Sum, k), Sigma: []float64{3, 1},
		RowG: make([]exact.Sum, k*k), ColG: make([]exact.Sum, k*k),
	}
	fact.RowSum[0].Add(1.25)
	fact.ColG[1].Add(-4)
	var out []string
	for _, p := range []*query.Partial{cells, fact} {
		enc, err := EncodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// TestDecodePartialHostileRank: a frame whose rank promises k×k second
// moments it does not carry is refused from its length, before the
// accumulators are allocated.
func TestDecodePartialHostileRank(t *testing.T) {
	const k = 256
	p := &query.Partial{
		Agg: query.StdDev, Factored: true, NumCells: 1, K: k,
		RowSum: make([]exact.Sum, k), ColSum: make([]exact.Sum, k), Sigma: make([]float64, k),
	}
	enc, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := base64.StdEncoding.DecodeString(enc)
	frame[5] |= 2 // claim second moments; none follow
	enc = base64.StdEncoding.EncodeToString(frame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodePartial(enc); err == nil {
		t.Fatal("hostile frame decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(frame)) {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

// FuzzDecodePartial feeds arbitrary bytes to the decoder the proxy applies
// to shard bytes, both as the base64 text it receives and as the SQP1
// frame inside it: it must never panic, and whatever it accepts must
// re-encode to a frame that decodes to the same encoding.
func FuzzDecodePartial(f *testing.F) {
	for _, s := range partialSeeds(f) {
		frame, _ := base64.StdEncoding.DecodeString(s)
		f.Add(frame)
	}
	f.Add([]byte("SQP1"))
	f.Add([]byte("not base64!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, enc := range []string{string(data), base64.StdEncoding.EncodeToString(data)} {
			p, err := DecodePartial(enc)
			if err != nil {
				continue
			}
			again, err := EncodePartial(p)
			if err != nil {
				t.Fatalf("decoded partial does not re-encode: %v", err)
			}
			q, err := DecodePartial(again)
			if err != nil {
				t.Fatalf("re-encoded partial does not decode: %v", err)
			}
			if third, _ := EncodePartial(q); third != again {
				t.Fatal("encoding is not stable across a decode")
			}
		}
	})
}
