package api

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"seqstore/internal/query"
)

// Request bounds shared by the store node and the proxy, so a request the
// proxy accepts is one every store node accepts too.
const (
	DefaultMaxBatchCells = 10000
	DefaultMaxBatchRows  = 1024
	// DefaultMaxBatchQueries bounds one /v1/aggregate/batch request. Each
	// query is a full aggregate evaluation, so the default is conservative.
	DefaultMaxBatchQueries = 64

	// MaxAggregateBody bounds a /v1/aggregate{,/batch} request body. Index
	// specs are compact (ranges, strides); a megabyte of them is a
	// malformed request, not a workload.
	MaxAggregateBody = 1 << 20
	// MaxBulkBody bounds a /v1/bulk request body.
	MaxBulkBody = 1 << 26
)

// badRequest marks a parse or validation failure as the client's fault
// (400 bad_request) without changing its message.
type badRequest struct{ error }

func (e badRequest) Is(target error) bool { return target == ErrBadRequest }
func (e badRequest) Unwrap() error        { return e.error }

// Invalidf formats a client-input error that classifies as 400
// bad_request.
func Invalidf(format string, args ...interface{}) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// Aggregate is one aggregate request resolved against a matrix shape.
type Aggregate struct {
	F   string // canonical function name echoed in responses
	Agg query.Aggregate
	Sel query.Selection
}

// Parse resolves the request's (f, rows, cols) against an n×m matrix. F
// defaults to "avg"; empty specs select full axes. Unparseable input is a
// bad_request error; a parseable selection that is empty or out of range
// carries the taxonomy class Classify maps to its own 400 code.
func (req AggregateRequest) Parse(n, m int) (Aggregate, error) {
	f := req.F
	if f == "" {
		f = "avg"
	}
	agg, err := query.ParseAggregate(f)
	if err != nil {
		return Aggregate{}, badRequest{err}
	}
	rows, err := query.ParseIndexSpec(req.Rows, n)
	if err != nil {
		return Aggregate{}, Invalidf("rows: %v", err)
	}
	cols, err := query.ParseIndexSpec(req.Cols, m)
	if err != nil {
		return Aggregate{}, Invalidf("cols: %v", err)
	}
	a := Aggregate{F: f, Agg: agg, Sel: query.Selection{Rows: rows, Cols: cols}}
	if err := a.Sel.Validate(n, m); err != nil {
		return Aggregate{}, err
	}
	return a, nil
}

// DecodeAggregate reads a POST /v1/aggregate body.
func DecodeAggregate(w http.ResponseWriter, r *http.Request) (AggregateRequest, error) {
	var req AggregateRequest
	err := decodeBody(w, r, "aggregate", &req)
	return req, err
}

// DecodeBatch reads a POST /v1/aggregate/batch body, refusing an empty
// query list and one longer than limit.
func DecodeBatch(w http.ResponseWriter, r *http.Request, limit int) (BatchAggregateRequest, error) {
	var req BatchAggregateRequest
	if err := decodeBody(w, r, "aggregate/batch", &req); err != nil {
		return req, err
	}
	if len(req.Queries) == 0 {
		return req, Invalidf(`aggregate/batch needs a non-empty "queries" array`)
	}
	if len(req.Queries) > limit {
		return req, Invalidf("batch of %d queries exceeds limit %d", len(req.Queries), limit)
	}
	return req, nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, what string, v interface{}) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxAggregateBody)).Decode(v); err != nil {
		return Invalidf("%s: malformed JSON body: %v", what, err)
	}
	return nil
}

// ParseCells parses the /v1/cells coordinates — at=i:j[,i:j...], repeated
// at= parameters accepted — refusing an empty list and one longer than
// limit. Indices are not range-checked here; the owning store does that.
func ParseCells(specs []string, limit int) ([][2]int, error) {
	var coords [][2]int
	for _, spec := range specs {
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			is, js, ok := strings.Cut(part, ":")
			if !ok {
				return nil, Invalidf("bad cell %q: want i:j", part)
			}
			i, err1 := strconv.Atoi(strings.TrimSpace(is))
			j, err2 := strconv.Atoi(strings.TrimSpace(js))
			if err1 != nil || err2 != nil {
				return nil, Invalidf("bad cell %q: want integer i:j", part)
			}
			coords = append(coords, [2]int{i, j})
		}
	}
	if len(coords) == 0 {
		return nil, Invalidf("cells needs at=i:j[,i:j...] parameters")
	}
	if len(coords) > limit {
		return nil, Invalidf("batch of %d cells exceeds limit %d", len(coords), limit)
	}
	return coords, nil
}

// ParseRows parses the /v1/rows index spec against n rows. Unlike an
// aggregate selection the spec must be non-empty — an unbounded "all
// rows" response is refused — and may name at most limit rows.
func ParseRows(spec string, n, limit int) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, Invalidf("rows needs an i index spec, e.g. i=0:8,17")
	}
	idx, err := query.ParseIndexSpec(spec, n)
	if err != nil {
		return nil, badRequest{err}
	}
	if len(idx) == 0 {
		return nil, Invalidf("rows selection is empty")
	}
	if len(idx) > limit {
		return nil, Invalidf("batch of %d rows exceeds limit %d", len(idx), limit)
	}
	return idx, nil
}

// EncodePartial renders a mergeable partial in its wire form: the
// versioned SQP1 binary frame, base64-wrapped so it can ride inside JSON
// (partials carry exact accumulators and possibly-NaN extrema, which JSON
// numbers cannot).
func EncodePartial(p *query.Partial) (string, error) {
	raw, err := p.MarshalBinary()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// DecodePartial inverts EncodePartial. Its input arrives from another
// process, so every malformed byte string is an error, never a panic.
func DecodePartial(enc string) (*query.Partial, error) {
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("api: undecodable partial: %v", err)
	}
	p := new(query.Partial)
	if err := p.UnmarshalBinary(raw); err != nil {
		return nil, fmt.Errorf("api: %v", err)
	}
	return p, nil
}
