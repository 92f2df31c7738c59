// Command seqproxy is the distributed tier's stateless front door: it
// serves the same typed /v1 contract as a seqserver store node, but routes
// each request over N store nodes that each own a contiguous row range of
// the matrix, as described by a JSON topology file:
//
//	{"shards": [
//	  {"addr": "http://10.0.0.1:8080", "lo": 0,    "hi": 4096},
//	  {"addr": "http://10.0.0.2:8080", "lo": 4096, "hi": -1}
//	]}
//
//	seqproxy -topology cluster.json -addr :8090
//
// Ranges must tile [0, n) contiguously; the last range may be open-ended
// (hi = -1), in which case it absorbs /v1/bulk appends. The file is
// re-read on SIGHUP, swapping the shard set without dropping in-flight
// requests.
//
// Routing:
//
//	/v1/cell, /v1/row        routed to the shard owning row i
//	/v1/cells, /v1/rows      fanned out by shard, reassembled in request order
//	/v1/aggregate,           scattered: the selection splits by shard row
//	/v1/aggregate/batch      range, each shard evaluates its fragment into
//	                         an exact mergeable partial, and the proxy
//	                         gathers in shard order — the merged value is
//	                         bit-identical to a single node evaluating the
//	                         unsplit selection; "explain": true returns the
//	                         per-shard plans and cost estimates merged under
//	                         one block
//	/v1/bulk                 forwarded to the open-ended shard, row indices
//	                         re-mapped to global
//	/v1/info                 composed from per-shard infos
//	/v1/healthz              per-shard liveness; with -slo-objective, the
//	                         per-endpoint attainment and burn-rate report
//	/v1/metrics              proxy endpoint histograms + per-shard gauges
//	                         (inflight, errors, hedges, p99); ?format=prom
//	                         renders Prometheus text; ?scope=cluster scrapes
//	                         and merges every store node's registry, each
//	                         sample labeled shard="N"
//	/v1/debug/traces         ring of completed request traces: the full
//	                         scatter/gather tree, per-attempt hedge outcomes
//	                         and per-shard ledger splits under one trace id
//
// Every response carries X-Request-Id and the full X-Cost-* ledger, where
// the proxy's counts are the sums of the per-shard ledgers it gathered —
// the paper's disk-access cost model survives the network hop. The proxy
// runs the store node's request middleware (internal/api): it adopts a
// valid inbound W3C-style traceparent just as a store node does, and
// propagates its own on every shard call; store nodes adopt it and return
// compact span summaries that are folded into the proxy's trace.
//
// A dead or stalled store node turns into a typed 503 with the failing
// shards named in the error detail, within -shard-timeout; idempotent
// point reads are retried against the same shard after -hedge-after.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seqstore/internal/cluster"
	"seqstore/internal/server"
)

func main() {
	fs := flag.NewFlagSet("seqproxy", flag.ExitOnError)
	topoPath := fs.String("topology", "", "JSON shard topology file (required); re-read on SIGHUP")
	addr := fs.String("addr", ":8090", "listen address")
	shardTimeout := fs.Duration("shard-timeout", cluster.DefaultTimeout,
		"per-shard request deadline; a silent shard is reported unavailable after this")
	hedgeAfter := fs.Duration("hedge-after", 0,
		"hedge idempotent point reads against a slow shard after this delay (0 disables)")
	logFormat := fs.String("log-format", "json", "structured log format: json or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	traceBuffer := fs.Int("trace-buffer", 0,
		"request traces kept for /v1/debug/traces (0 = default)")
	slowQuery := fs.Duration("slow-query", 0,
		"log requests at least this slow at Warn with cost ledger, trace id and winning shards (0 disables)")
	sloObjective := fs.Duration("slo-objective", 0,
		"per-endpoint latency objective reported by /v1/metrics and /v1/healthz (0 disables)")
	sloTarget := fs.Float64("slo-target", 0.99,
		"fraction of requests that must meet -slo-objective")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"max time to drain in-flight requests on SIGINT/SIGTERM")
	fs.Parse(os.Args[1:])
	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "seqproxy: -topology is required")
		os.Exit(1)
	}
	logger, err := server.NewLogger(os.Stdout, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqproxy: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	proxy, err := cluster.New(*topoPath, cluster.Options{
		Timeout:      *shardTimeout,
		HedgeAfter:   *hedgeAfter,
		Logger:       logger,
		SlowQuery:    *slowQuery,
		TraceBuffer:  *traceBuffer,
		SLOObjective: *sloObjective,
		SLOTarget:    *sloTarget,
	})
	if err != nil {
		log.Fatalf("seqproxy: %v", err)
	}

	// SIGHUP hot-reloads the topology file; a bad file logs and keeps the
	// current shard set serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := proxy.ReloadFile(); err != nil {
				logger.Error("topology reload failed; keeping current topology", "err", err)
				continue
			}
			logger.Info("topology reloaded", "file", *topoPath)
		}
	}()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           proxy,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Write timeout leaves headroom over the scatter deadline so a
		// slow shard yields a typed 503, not a severed connection.
		WriteTimeout: *shardTimeout + 30*time.Second,
		IdleTimeout:  120 * time.Second,
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("seqproxy: listen %s: %v", *addr, err)
	}
	logger.Info("proxy serving", "addr", l.Addr().String(),
		"topology", *topoPath, "shard_timeout", *shardTimeout, "hedge_after", *hedgeAfter)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := server.RunHTTP(ctx, srv, l, *shutdownTimeout); err != nil {
		log.Fatalf("seqproxy: %v", err)
	}
	logger.Info("proxy stopped")
}
