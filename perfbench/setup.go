package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"seqstore/internal/cluster"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/server"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// Serving defaults, matching the seqserver and seqproxy flag defaults.
const (
	cacheRows = 4096 // seqserver -cache-rows
	budget    = 0.10 // SVDD space budget the workloads compress at
)

// stageTimes splits one setup, in seconds, by the module doing the work.
type stageTimes struct {
	gen       float64 // dataset: generate the phone matrix
	write     float64 // matio: write the .smx
	factors   float64 // svd: pass 1 (accumulate C, SymEigen)
	scoreEmit float64 // core: SVDD scoring + U emission
	save      float64 // store: SaveLabeled
	open      float64 // server.Open (+ slicing and tier open)
	listen    float64 // servers built and listening
	total     float64
}

// node is one in-process HTTP server on a loopback listener.
type node struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler, srv *http.Server) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv.Handler = h
	n := &node{url: "http://" + l.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		srv.Serve(l) // returns http.ErrServerClosed on shutdown
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv.Shutdown(ctx) != nil {
		n.srv.Close()
	}
	<-n.done
}

// nodeServer mirrors the http.Server that server.New configures for
// seqserver's flag defaults.
func nodeServer() *http.Server {
	return &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
}

// proxyServer mirrors seqproxy's http.Server.
func proxyServer() *http.Server {
	return &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      cluster.DefaultTimeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// requestLog is the JSON request log at seqserver's default level, written
// to io.Discard: the formatting cost stays, the output goes nowhere.
func requestLog() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// deployment is one workload's system under test: the compressed store,
// the servers in front of it and the probes a traced run reads.
type deployment struct {
	spec   workloadSpec
	dir    string
	raw    *linalg.Matrix // the generated rows the store compresses
	smx    string
	sqz    string
	wal    string
	full   *core.Store       // the served store (ad hoc) or initial cold segment (ingest)
	shards []*core.Store     // per-node slices (proxy)
	nodes  []*node           // store nodes
	hands  []*server.Handler // one per store node
	proxy  *cluster.Proxy
	tier   *ingest.Tiered
	front  string // the URL clients talk to

	probes *probes // nil in untraced runs
}

// deploy runs one complete setup: generate → .smx → compress → save →
// open → servers listening. Nothing is cached between setups.
//
// The dataset is the phone stand-in at its fixed generator seed
// (dataset.DefaultPhoneConfig), the matrix every experiment in the
// repository uses; the run's seed varies the request streams. Seeding the
// data per run made the compression itself — k, the outlier set, RMSPE —
// differ from seed to seed by more than any bound a regression gate could
// use.
func deploy(spec workloadSpec, dir string, probe *probes) (*deployment, stageTimes, error) {
	var st stageTimes
	d := &deployment{spec: spec, dir: dir, probes: probe,
		smx: filepath.Join(dir, "data.smx"), sqz: filepath.Join(dir, "data.sqz"), wal: filepath.Join(dir, "data.wal")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	begin := time.Now()
	lap := func(dst *float64) {
		now := time.Now()
		*dst = now.Sub(begin).Seconds() - st.total
		st.total = now.Sub(begin).Seconds()
	}

	d.raw = dataset.GeneratePhone(dataset.DefaultPhoneConfig(spec.rows))
	lap(&st.gen)

	if err := matio.WriteMatrix(d.smx, d.raw); err != nil {
		return nil, st, fmt.Errorf("write smx: %w", err)
	}
	lap(&st.write)

	// seqcompress defaults: SVDD, gram factors, workers = NumCPU.
	src, err := matio.Open(d.smx)
	if err != nil {
		return nil, st, err
	}
	defer src.Close()
	f, err := svd.ComputeFactorsWorkers(src, 0)
	if err != nil {
		return nil, st, fmt.Errorf("factors: %w", err)
	}
	lap(&st.factors)
	comp, err := core.CompressWithFactors(src, f, core.Options{Budget: budget})
	if err != nil {
		return nil, st, fmt.Errorf("compress: %w", err)
	}
	lap(&st.scoreEmit)

	if err := store.SaveLabeled(d.sqz, comp, nil); err != nil {
		return nil, st, fmt.Errorf("save: %w", err)
	}
	lap(&st.save)

	opened, labels, err := server.Open(d.sqz)
	if err != nil {
		return nil, st, err
	}
	full, ok := opened.(*core.Store)
	if !ok {
		return nil, st, fmt.Errorf("opened store is %T, want SVDD", opened)
	}
	d.full = full
	var served []store.Store
	switch {
	case spec.shards > 0:
		n, _ := full.Dims()
		for s := 0; s < spec.shards; s++ {
			slice, err := full.SliceRows(s*n/spec.shards, (s+1)*n/spec.shards)
			if err != nil {
				return nil, st, err
			}
			d.shards = append(d.shards, slice)
			served = append(served, slice)
		}
	case spec.writable:
		// seqserver -writable defaults: compact after 256, recompress at
		// 1.5× growth with the randomized compressor, background compactor
		// on, compactions persisted into the store file.
		d.tier, err = ingest.Open(full, labels, d.wal, ingest.Options{PersistPath: d.sqz, Logger: requestLog()})
		if err != nil {
			return nil, st, err
		}
		served = append(served, d.tier)
	default:
		served = append(served, full)
	}
	lap(&st.open)

	if err := d.listen(served, labels); err != nil {
		d.close()
		return nil, st, err
	}
	lap(&st.listen)
	return d, st, nil
}

// listen builds one server.New per served store and, for sharded
// workloads, the proxy in front of them. Each node's Handler is served by
// an http.Server configured as server.New configures its own, so a traced
// run can wrap the Handler in its timing probe.
func (d *deployment) listen(served []store.Store, labels *store.Labels) error {
	for _, s := range served {
		srv := server.New(s, labels, server.Config{
			CacheRows:    cacheRows,
			QueryWorkers: 1,
			Logger:       requestLog(),
		})
		h := srv.Handler()
		d.hands = append(d.hands, h)
		var handler http.Handler = h
		if d.probes != nil {
			handler = d.probes.wrapNode(h)
		}
		n, err := serve(handler, nodeServer())
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
	}
	if d.spec.shards == 0 {
		d.front = d.nodes[0].url
		return nil
	}
	rows, _ := d.full.Dims()
	topo := &cluster.Topology{}
	for s, n := range d.nodes {
		sh := cluster.Shard{Addr: n.url, Lo: s * rows / len(d.nodes), Hi: (s + 1) * rows / len(d.nodes)}
		if s == len(d.nodes)-1 {
			sh.Hi = -1
		}
		topo.Shards = append(topo.Shards, sh)
	}
	opts := cluster.Options{Logger: requestLog()}
	if d.probes != nil {
		opts.Client = d.probes.shardClient()
	}
	d.proxy = cluster.NewWithTopology(topo, opts)
	var handler http.Handler = d.proxy
	if d.probes != nil {
		handler = d.probes.wrapProxy(d.proxy)
	}
	front, err := serve(handler, proxyServer())
	if err != nil {
		return err
	}
	d.nodes = append(d.nodes, front)
	d.front = front.url
	return nil
}

// close stops every server (proxy first) and the ingestion tier, then
// removes the setup's files.
func (d *deployment) close() error {
	for k := len(d.nodes) - 1; k >= 0; k-- {
		d.nodes[k].close()
	}
	d.nodes = nil
	var err error
	if d.tier != nil {
		err = d.tier.Close()
		d.tier = nil
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}
