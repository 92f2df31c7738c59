package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"seqstore/internal/seqerr"
	"seqstore/internal/store"
)

// Config configures the production http.Server around a Handler. The zero
// value is usable: every field defaults to the values documented on it.
type Config struct {
	// Addr is the listen address; default ":8080".
	Addr string
	// CacheRows sizes the LRU row cache; 0 disables it.
	CacheRows int
	// MaxBatchCells / MaxBatchRows / MaxBatchQueries bound the batch
	// endpoints; 0 selects the package defaults.
	MaxBatchCells   int
	MaxBatchRows    int
	MaxBatchQueries int
	// PlanCacheSize sizes the query-plan cache; 0 selects
	// DefaultPlanCacheSize, negative disables it.
	PlanCacheSize int
	// QueryWorkers shards aggregate evaluation across this many
	// goroutines: 0 means one per CPU, 1 evaluates serially.
	QueryWorkers int
	// Logger receives the structured request log; nil silences it.
	Logger *slog.Logger
	// SlowQuery is the latency threshold above which requests log at Warn
	// with their cost ledger; 0 disables the slow-query log.
	SlowQuery time.Duration
	// TraceBuffer sizes the /v1/debug/traces ring; 0 selects the default.
	TraceBuffer int
	// SLOObjective is the per-endpoint latency objective surfaced through
	// /v1/metrics and /v1/healthz; 0 disables SLO reporting. SLOTarget is
	// the fraction of requests that must meet it; 0 selects 0.99.
	SLOObjective time.Duration
	SLOTarget    float64

	// ReadHeaderTimeout bounds reading request headers; default 5s.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading the whole request; default 10s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response — generous by default (60s)
	// because a whole-dataset naive aggregate on a large store is legal.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive idle connections; default 120s.
	IdleTimeout time.Duration
	// MaxHeaderBytes caps request header size; default 1 MiB.
	MaxHeaderBytes int
	// ShutdownTimeout bounds graceful drain of in-flight requests after
	// the serve context is cancelled; default 10s.
	ShutdownTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 60 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 1 << 20
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	return c
}

// Server wraps a Handler in a fully configured http.Server with graceful
// shutdown. Create it with New; serve with Run (or Serve + Shutdown for
// finer control).
type Server struct {
	cfg     Config
	handler *Handler
	http    *http.Server
}

// New builds a Server over an open store and optional labels.
func New(st store.Store, labels *store.Labels, cfg Config) *Server {
	cfg = cfg.withDefaults()
	h := NewHandler(st, labels, Options{
		CacheRows:       cfg.CacheRows,
		MaxBatchCells:   cfg.MaxBatchCells,
		MaxBatchRows:    cfg.MaxBatchRows,
		MaxBatchQueries: cfg.MaxBatchQueries,
		PlanCacheSize:   cfg.PlanCacheSize,
		QueryWorkers:    cfg.QueryWorkers,
		Logger:          cfg.Logger,
		SlowQuery:       cfg.SlowQuery,
		TraceBuffer:     cfg.TraceBuffer,
		SLOObjective:    cfg.SLOObjective,
		SLOTarget:       cfg.SLOTarget,
	})
	return &Server{
		cfg:     cfg,
		handler: h,
		http: &http.Server{
			Addr:              cfg.Addr,
			Handler:           h,
			ReadHeaderTimeout: cfg.ReadHeaderTimeout,
			ReadTimeout:       cfg.ReadTimeout,
			WriteTimeout:      cfg.WriteTimeout,
			IdleTimeout:       cfg.IdleTimeout,
			MaxHeaderBytes:    cfg.MaxHeaderBytes,
		},
	}
}

// Handler returns the underlying query handler (for tests and harnesses).
func (s *Server) Handler() *Handler { return s.handler }

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Listen opens the configured TCP listener.
func (s *Server) Listen() (net.Listener, error) {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	return l, nil
}

// Serve accepts connections on l until Shutdown (or a fatal accept
// error). A graceful shutdown returns nil, not http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to drain, up to the context deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Run serves on l until ctx is cancelled (typically by SIGINT/SIGTERM via
// signal.NotifyContext), then drains in-flight requests for up to
// Config.ShutdownTimeout before returning. A clean drain returns nil; a
// drain that exceeds the timeout returns the shutdown error with any
// still-open connections force-closed.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	return RunHTTP(ctx, s.http, l, s.cfg.ShutdownTimeout)
}

// RunHTTP serves hs on l until ctx is cancelled, then drains in-flight
// requests for up to drain before returning — the serve loop of every
// process speaking the /v1 contract. A clean drain returns nil; a drain
// that exceeds the timeout force-closes the remaining connections and
// returns the shutdown error.
func RunHTTP(ctx context.Context, hs *http.Server, l net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		err := hs.Serve(l)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return <-errc
}

// NewLogger builds a process logger writing to w from the -log-format and
// -log-level flag values: "json" (one object per line, machine-shippable;
// the default) or "text" (human-readable), at debug, info (the default),
// warn or error.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "json", "":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json|text)", format)
	}
}

// Open loads a compressed .sqz store and its labels for serving — the
// internal-interface mirror of the facade's seqstore.Open. Failures name
// the file; container damage carries the frame and byte offset (see
// seqerr.CorruptError).
func Open(path string) (store.Store, *store.Labels, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open: %w", err)
	}
	defer f.Close()
	st, labels, err := store.ReadLabeled(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, nil, seqerr.FillPath(fmt.Errorf("server: open %s: %w", path, err), path)
	}
	return st, labels, nil
}
