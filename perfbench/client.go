package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"seqstore/internal/trace"
)

// result is one completed request as the client saw it.
type result struct {
	op     *op
	status int
	body   []byte
	start  time.Time
	dur    time.Duration
	err    error
	traced bool

	// Traced phases only.
	id   string
	cost trace.LedgerSnapshot

	// Ingest reads resolve their row addressing at send time.
	i    int
	rows string

	failed     bool // transport error, non-2xx, or a wrong answer
	unverified bool // the store changed under the request; not checkable
}

// client issues requests over the shared keep-alive transport.
type client struct {
	hc    *http.Client
	front string
	id    int
	seq   int
	buf   bytes.Buffer
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxClients,
		MaxIdleConnsPerHost: maxClients,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
}

// maxClients bounds the client goroutines and their connections.
const maxClients = 2

// do sends one request and reads the whole response; the timing runs from
// send to the last byte received.
func (c *client) do(method, path, ctype string, body []byte, traced bool) result {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.front+path, rd)
	if err != nil {
		return result{err: err, failed: true}
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	res := result{traced: traced}
	if traced {
		c.seq++
		res.id = "b" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
		req.Header.Set(trace.HeaderRequestID, res.id)
	}
	res.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		res.dur = time.Since(res.start)
		res.err, res.failed = err, true
		return res
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	res.dur = time.Since(res.start)
	res.status = resp.StatusCode
	if err != nil {
		res.err, res.failed = err, true
		return res
	}
	res.body = append([]byte(nil), c.buf.Bytes()...)
	if traced {
		res.cost = trace.ParseCostHeaders(resp.Header)
	}
	if res.status < 200 || res.status > 299 {
		res.failed = true
		res.err = fmt.Errorf("%s %s: status %d: %.200s", method, path, res.status, res.body)
	}
	return res
}

// sendAdhoc sends one pre-rendered ad hoc op.
func (c *client) sendAdhoc(o *op, traced bool) result {
	r := c.do(o.method, o.path, "application/json", o.body, traced)
	r.op = o
	return r
}

// phase is one timed slice of a run.
type phase struct {
	traced bool
	dur    time.Duration
}

// schedule lays phases end to end from a common start, so every client
// agrees on which phase a request belongs to: the one in which it was
// sent. A request in flight when its phase ends completes and counts
// toward that phase.
type schedule struct {
	start  time.Time
	phases []phase
	ends   []time.Time
}

func newSchedule(start time.Time, phases []phase) *schedule {
	s := &schedule{start: start, phases: phases}
	t := start
	for _, ph := range phases {
		t = t.Add(ph.dur)
		s.ends = append(s.ends, t)
	}
	return s
}

// at returns the phase index running at t, or len(phases) once all ended.
func (s *schedule) at(t time.Time) int {
	for k, end := range s.ends {
		if t.Before(end) {
			return k
		}
	}
	return len(s.ends)
}

// runLoop drives one closed-loop client through the schedule: it sends its
// next op only after the previous answer arrived.
func runLoop(s *schedule, ops []op, next *int, send func(o *op, traced bool) result) [][]result {
	out := make([][]result, len(s.phases))
	for {
		k := s.at(time.Now())
		if k == len(s.phases) {
			return out
		}
		o := &ops[*next%len(ops)]
		*next++
		out[k] = append(out[k], send(o, s.phases[k].traced))
	}
}

// wraps counts how many times a client ran past the end of its stream.
func wraps(next, n int) int { return next / n }
