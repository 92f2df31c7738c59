// Command seqserver serves ad hoc queries over a compressed .sqz store via
// HTTP/JSON — the decision-support front end the paper's warehouse setting
// implies: analysts issue cell and aggregate queries against the
// compressed data without ever reconstituting the original matrix.
//
//	seqserver -store phone2000.sqz -addr :8080 -cache-rows 4096
//
// Endpoints, all under /v1/ (each answers one verb; others get 405 with an
// Allow header, and any other path is a 404):
//
//	GET  /v1/info                     store metadata
//	GET  /v1/cell?i=42&j=180          one reconstructed cell
//	GET  /v1/cell?row=GHI+Inc.&col=We the same, by axis labels (when stored)
//	GET  /v1/cells?at=42:180,42:181   batch cell lookups
//	GET  /v1/row?i=42                 one reconstructed sequence
//	GET  /v1/rows?i=0:8,17            batch row reconstruction
//	POST /v1/aggregate                aggregate over a row/column selection,
//	                                  body {"f":"avg","rows":"0:1000",
//	                                  "cols":"180:187"}; rows/cols accept
//	                                  "3,17,0:10" specs and default to
//	                                  "all"; plans (V panel + row-run
//	                                  schedule) are memoized in a plan cache
//	                                  sized by -plan-cache; "explain": true
//	                                  adds the chosen plan, plan-cache
//	                                  outcome, row-run schedule and cost
//	                                  estimates next to the executed ledger
//	                                  (no extra disk accesses; exact on a
//	                                  cold store)
//	POST /v1/aggregate/batch          N aggregates in one request sharing
//	                                  one pass over the selections' U-row
//	                                  union; body {"queries":[{"f":"sum",
//	                                  "rows":"0:64","cols":"0:24"},...]},
//	                                  per-item status in the response like
//	                                  /v1/bulk; "explain" per query or
//	                                  batch-wide
//	GET  /v1/metrics                  per-endpoint latency histograms,
//	                                  row-cache hit rate, disk-access
//	                                  counters, corruption count;
//	                                  ?format=prom renders the same snapshot
//	                                  as Prometheus text
//	GET  /v1/debug/traces             ring of recently completed request
//	                                  traces with per-request cost ledgers
//	GET  /v1/healthz                  liveness probe
//
// With -writable the store becomes a live ingestion tier and the write
// endpoint accepts appends (on a read-only store it answers 403):
//
//	POST /v1/bulk                     NDJSON bulk append, one document per
//	                                  line: {"label":"cust-9911",
//	                                  "values":[...]} with optional
//	                                  {"create":{}} action lines. The whole
//	                                  request is one WAL fsync; a 201 item
//	                                  is durable across any crash. Appended
//	                                  rows serve immediately (exact, zero
//	                                  disk accesses) and are folded into the
//	                                  compressed segment by a background
//	                                  compactor, which atomically rewrites
//	                                  the -store file and checkpoints the
//	                                  WAL.
//
// Every response carries X-Request-Id (echoing a well-formed client value,
// or a fresh one) and X-Cost-Disk-Accesses, the number of U-row fetches the
// request cost under the paper's block model. A request with a valid
// traceparent joins the caller's distributed trace and gets X-Trace-Spans.
//
// Errors map onto the store's typed taxonomy: bad input and out-of-range
// indices are 400s, detected on-disk corruption is a 503 (the process
// keeps serving what it still can), a client gone mid-query logs as 499.
//
// The serving layer (timeouts, graceful shutdown, row cache, telemetry)
// lives in internal/server and the request middleware in internal/api;
// this command only parses flags and wires up logging, signal handling and
// the optional pprof listener.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seqstore/internal/ingest"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// servePprof starts net/http/pprof on its own listener, registered on an
// explicit mux so the profiling surface never leaks onto the query API's
// address. Debug-only: bind it to localhost.
func servePprof(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("pprof listener failed", "addr", addr, "err", err)
		}
	}()
}

func main() {
	fs := flag.NewFlagSet("seqserver", flag.ExitOnError)
	storePath := fs.String("store", "", "compressed .sqz store (required)")
	addr := fs.String("addr", ":8080", "listen address")
	cacheRows := fs.Int("cache-rows", 4096, "LRU row-cache capacity in rows (0 disables)")
	planCache := fs.Int("plan-cache", 0,
		"query-plan cache capacity in plans (0 = default 256, negative disables)")
	queryWorkers := fs.Int("query-workers", 1,
		"goroutines per aggregate evaluation (0 = one per CPU)")
	logFormat := fs.String("log-format", "json", "structured log format: json or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	slowQuery := fs.Duration("slow-query", 0,
		"log requests slower than this at Warn with their cost ledger (0 disables)")
	traceBuffer := fs.Int("trace-buffer", 0,
		"request traces kept for /v1/debug/traces (0 = default)")
	sloObjective := fs.Duration("slo-objective", 0,
		"per-endpoint latency objective reported by /v1/metrics and /v1/healthz (0 disables)")
	sloTarget := fs.Float64("slo-target", 0.99,
		"fraction of requests that must meet -slo-objective")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof on this separate address (empty disables)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "request read timeout")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "response write timeout")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"max time to drain in-flight requests on SIGINT/SIGTERM")
	writable := fs.Bool("writable", false,
		"serve the store as a live ingestion tier: enables POST /v1/bulk, a WAL-backed hot segment and background compaction into -store")
	walPath := fs.String("wal", "",
		"write-ahead log path for -writable (default: <store>.wal)")
	compactAfter := fs.Int("compact-after", 0,
		"hot rows that wake the background compactor (0 = default 256)")
	recompressGrowth := fs.Float64("recompress-growth", 0,
		"cold-segment growth factor that triggers full recompression (0 = default 1.5, negative disables)")
	fs.Parse(os.Args[1:])
	if *storePath == "" {
		fmt.Fprintln(os.Stderr, "seqserver: -store is required")
		os.Exit(1)
	}
	logger, err := server.NewLogger(os.Stdout, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqserver: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	st, labels, err := server.Open(*storePath)
	if err != nil {
		log.Fatalf("seqserver: %v", err)
	}
	if *writable {
		wal := *walPath
		if wal == "" {
			wal = *storePath + ".wal"
		}
		// Compactions persist the folded cold segment back into the -store
		// file (atomic rename), so restarts replay only the still-hot tail.
		ti, err := ingest.Open(st, labels, wal, ingest.Options{
			CompactAfter:     *compactAfter,
			RecompressGrowth: *recompressGrowth,
			PersistPath:      *storePath,
			Logger:           logger,
		})
		if err != nil {
			log.Fatalf("seqserver: %v", err)
		}
		defer ti.Close()
		st = ti
		logger.Info("ingestion tier enabled",
			"wal", wal, "hot_rows", ti.HotRows(), "compact_after", *compactAfter)
	}
	srv := server.New(st, labels, server.Config{
		Addr:            *addr,
		CacheRows:       *cacheRows,
		PlanCacheSize:   *planCache,
		QueryWorkers:    *queryWorkers,
		Logger:          logger,
		SlowQuery:       *slowQuery,
		TraceBuffer:     *traceBuffer,
		SLOObjective:    *sloObjective,
		SLOTarget:       *sloTarget,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		IdleTimeout:     *idleTimeout,
		ShutdownTimeout: *shutdownTimeout,
	})
	l, err := srv.Listen()
	if err != nil {
		log.Fatalf("seqserver: %v", err)
	}
	if *debugAddr != "" {
		servePprof(*debugAddr, logger)
	}
	rows, cols := st.Dims()
	logger.Info("serving",
		"method", st.Method().String(),
		"rows", rows, "cols", cols,
		"space_ratio", store.SpaceRatio(st),
		"addr", l.Addr().String(),
		"cache_rows", *cacheRows)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, l); err != nil {
		log.Fatalf("seqserver: %v", err)
	}
	logger.Info("drained in-flight requests, exiting")
}
