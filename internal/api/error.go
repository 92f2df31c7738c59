package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"seqstore/internal/ingest"
	"seqstore/internal/seqerr"
	"seqstore/internal/trace"
)

// ErrorDetail is the unified /v1 error body. Code is a stable,
// machine-matchable slug (the wire form of the seqerr taxonomy); Message is
// the human-readable context; RequestID ties the failure to its trace.
// Shards names the failing store nodes when a scattered request failed
// partially.
type ErrorDetail struct {
	Code      string       `json:"code"`
	Message   string       `json:"message"`
	RequestID string       `json:"request_id,omitempty"`
	Shards    []ShardError `json:"shards,omitempty"`
}

// ShardError is one store node's failure inside a scattered request.
type ShardError struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr"`
	Message string `json:"message"`
}

// ErrorEnvelope wraps every /v1 error: {"error": {"code", "message",
// "request_id"}}. One envelope, one mapping helper, every handler — the
// flat {"error": "msg"} bodies this replaces had one copy per handler
// family.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// ErrBadRequest is the taxonomy class of malformed client input — an
// unparseable parameter, body or index spec. Invalidf builds errors of this
// class.
var ErrBadRequest = errors.New("bad request")

// StatusClientClosedRequest is the nginx-convention status for a request
// abandoned by the client (context.Canceled); no standard code exists.
const StatusClientClosedRequest = 499

// Stable error codes. These are wire contract: clients match on them, so
// renaming one is a breaking change.
const (
	CodeBadRequest       = "bad_request"
	CodeOutOfRange       = "out_of_range"
	CodeEmptySelection   = "empty_selection"
	CodeNotWritable      = "not_writable"
	CodeCorrupt          = "corrupt"
	CodeBadVersion       = "bad_version"
	CodeClientClosed     = "client_closed"
	CodeTimeout          = "timeout"
	CodeUnavailable      = "unavailable"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInternal         = "internal"
)

// errTable is the single error-class → (HTTP status, code) table, driven by
// the shared seqerr taxonomy instead of string matching. First match wins.
var errTable = []struct {
	class  error
	status int
	code   string
}{
	{ErrBadRequest, http.StatusBadRequest, CodeBadRequest},
	{seqerr.ErrOutOfRange, http.StatusBadRequest, CodeOutOfRange},
	{seqerr.ErrEmptySelection, http.StatusBadRequest, CodeEmptySelection},
	{ingest.ErrNotFinite, http.StatusBadRequest, CodeBadRequest},
	{ingest.ErrNotWritable, http.StatusForbidden, CodeNotWritable},
	{seqerr.ErrUnavailable, http.StatusServiceUnavailable, CodeUnavailable},
	{seqerr.ErrCorrupt, http.StatusServiceUnavailable, CodeCorrupt},
	{seqerr.ErrBadVersion, http.StatusInternalServerError, CodeBadVersion},
	{context.Canceled, StatusClientClosedRequest, CodeClientClosed},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeTimeout},
}

// Classify maps an error to its HTTP status and stable code via the
// taxonomy table. Unrecognized errors — a failing disk read, an encoding
// bug — are internal failures (500).
func Classify(err error) (status int, code string) {
	for _, e := range errTable {
		if errors.Is(err, e.class) {
			return e.status, e.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// WriteError classifies err and writes the error envelope, stamping the
// request ID from the request's trace context.
func WriteError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := Classify(err)
	WriteErrorDetail(w, r, status, ErrorDetail{Code: code, Message: err.Error()})
}

// WriteErrorDetail writes a fully specified error envelope — the escape
// hatch for callers that need a particular status/code pairing (405 with
// Allow, the proxy's 503 with shard details) — stamping the request ID
// from the request's trace context ("" for untraced requests, which omits
// the field).
func WriteErrorDetail(w http.ResponseWriter, r *http.Request, status int, detail ErrorDetail) {
	detail.RequestID = trace.FromContext(r.Context()).ID()
	WriteJSON(w, status, ErrorEnvelope{Error: detail})
}

// WriteJSON encodes body to a buffer first and only then commits the
// status line, so an encoding failure yields a clean 500 instead of a
// truncated 200. Every /v1 response — success or error, server or proxy —
// goes through here, which is also what lets cost headers be computed in a
// just-before-commit hook.
func WriteJSON(w http.ResponseWriter, status int, body interface{}) {
	buf, err := json.Marshal(body)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":{"code":"internal","message":"response encoding failed"}}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}
