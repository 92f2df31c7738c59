package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/trace"
)

// span is one timed interval a probe observed from outside a layer.
type span struct {
	id         string // X-Request-Id, joining client, proxy and shard views
	class      opClass
	start, end time.Time
	bytes      int64
	failed     bool
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// probes time the layers of a traced run from outside the program: a
// timing http.Handler around each store node's Handler and around the
// proxy, and a timing RoundTripper on the proxy's shard client. They
// record only while switched on, which a run does for its traced slices.
type probes struct {
	on    atomic.Bool
	mu    sync.Mutex
	node  []span // inside a store node's Handler.ServeHTTP
	proxy []span // inside the proxy's ServeHTTP
	shard []span // proxy → store node calls, send to last byte
}

func newProbes() *probes { return &probes{} }

func (p *probes) setOn(on bool) { p.on.Store(on) }

func (p *probes) record(dst *[]span, s span) {
	p.mu.Lock()
	*dst = append(*dst, s)
	p.mu.Unlock()
}

// classOf maps a request path to its op class; -1 for other routes.
func classOf(path string) opClass {
	switch path {
	case "/v1/cell":
		return classCell
	case "/v1/row":
		return classRow
	case "/v1/aggregate":
		return classAgg
	case "/v1/aggregate/batch":
		return classBatch
	case "/v1/bulk":
		return classBulk
	}
	return -1
}

type timedHandler struct {
	h    http.Handler
	p    *probes
	sink *[]span
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.p.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.p.record(t.sink, span{id: r.Header.Get(trace.HeaderRequestID), class: classOf(r.URL.Path),
		start: start, end: time.Now()})
}

func (p *probes) wrapNode(h http.Handler) http.Handler {
	return &timedHandler{h: h, p: p, sink: &p.node}
}
func (p *probes) wrapProxy(h http.Handler) http.Handler {
	return &timedHandler{h: h, p: p, sink: &p.proxy}
}

// shardClient is the proxy's shard client with the timing RoundTripper
// injected; its transport matches the proxy's default one.
func (p *probes) shardClient() *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 32
	return &http.Client{Transport: &timedRT{base: base, p: p}}
}

type timedRT struct {
	base http.RoundTripper
	p    *probes
}

func (t *timedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.p.on.Load() {
		return t.base.RoundTrip(req)
	}
	s := span{id: req.Header.Get(trace.HeaderRequestID), class: classOf(req.URL.Path), start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end, s.failed = time.Now(), true
		t.p.record(&t.p.shard, s)
		return nil, err
	}
	s.failed = resp.StatusCode >= 400
	resp.Body = &timedBody{rc: resp.Body, s: s, p: t.p}
	return resp, nil
}

// timedBody ends a shard span at the body's EOF (or Close, if earlier),
// counting the bytes read.
type timedBody struct {
	rc   io.ReadCloser
	s    span
	p    *probes
	once sync.Once
}

func (b *timedBody) Read(buf []byte) (int, error) {
	n, err := b.rc.Read(buf)
	b.s.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *timedBody) finish() {
	b.once.Do(func() {
		b.s.end = time.Now()
		b.p.record(&b.p.shard, b.s)
	})
}

// snapshot copies the recorded spans.
func (p *probes) snapshot() (node, proxy, shard []span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]span(nil), p.node...), append([]span(nil), p.proxy...), append([]span(nil), p.shard...)
}
