package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// IngestConfig sizes the live-ingestion benchmark: Writers concurrent
// clients POST NDJSON batches to /v1/bulk while Readers issue cell and
// aggregate queries against the same tiered store, with the background
// compactor folding hot rows into the SVDD cold segment throughout. After
// the storm the tier is closed and reopened from its persisted cold segment
// plus WAL — the recovery half of the durability claim, timed.
type IngestConfig struct {
	ColdN        int     // phone-dataset customers compressed up front
	Budget       float64 // SVDD space budget of the cold segment
	WriterCounts []int   // one benchmarked run per writer count
	Readers      int     // concurrent read clients per run
	Batches      int     // bulk requests per writer
	BatchRows    int     // rows per bulk request
	CompactAfter int     // hot rows that wake the compactor
	CacheRows    int     // serving-layer row cache
	Seed         int64
}

// DefaultIngestConfig matches results/bench_ingest.json: a phone500 cold
// segment at a 10% budget absorbing 8-row bulk batches from 1, 2 and 4
// writers with 2 readers alongside.
func DefaultIngestConfig() IngestConfig {
	return IngestConfig{
		ColdN:        500,
		Budget:       0.10,
		WriterCounts: []int{1, 2, 4},
		Readers:      2,
		Batches:      24,
		BatchRows:    8,
		CompactAfter: 64,
		CacheRows:    512,
		Seed:         1,
	}
}

// IngestRun is one benchmarked writer count.
type IngestRun struct {
	Writers         int     `json:"writers"`
	RowsAppended    int64   `json:"rows_appended"`
	Seconds         float64 `json:"seconds"`
	RowsPerSec      float64 `json:"rows_per_sec"`
	BulkP50Ms       float64 `json:"bulk_p50_ms"`
	BulkP99Ms       float64 `json:"bulk_p99_ms"`
	CellP50Ms       float64 `json:"cell_p50_ms"`
	CellP99Ms       float64 `json:"cell_p99_ms"`
	Compactions     int64   `json:"compactions"`
	Recompressions  int64   `json:"recompressions"`
	RowsFolded      int64   `json:"rows_folded"`
	MaxPauseUs      int64   `json:"max_compact_pause_us"`
	WalSyncs        int64   `json:"wal_syncs"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	RecoveredRows   int     `json:"recovered_rows"`
}

// IngestResult is the harness output; serialized as
// results/bench_ingest.json by cmd/experiments.
type IngestResult struct {
	ColdN        int         `json:"cold_n"`
	M            int         `json:"m"`
	Budget       float64     `json:"budget"`
	Readers      int         `json:"readers"`
	Batches      int         `json:"batches_per_writer"`
	BatchRows    int         `json:"rows_per_batch"`
	CompactAfter int         `json:"compact_after"`
	NumCPU       int         `json:"num_cpu"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	Runs         []IngestRun `json:"runs"`
}

// BenchIngest drives the write path end to end at each configured writer
// count. The cold segment is compressed fresh per run: fold-ins mutate it,
// so sharing one store across runs would measure ever-growing segments.
func BenchIngest(cfg IngestConfig, w io.Writer) (*IngestResult, error) {
	if len(cfg.WriterCounts) == 0 {
		cfg.WriterCounts = []int{1}
	}
	if cfg.Batches < 1 {
		cfg.Batches = 1
	}
	if cfg.BatchRows < 1 {
		cfg.BatchRows = 1
	}
	x := Phone(cfg.ColdN)
	res := &IngestResult{
		ColdN: x.Rows(), M: x.Cols(), Budget: cfg.Budget,
		Readers: cfg.Readers, Batches: cfg.Batches, BatchRows: cfg.BatchRows,
		CompactAfter: cfg.CompactAfter,
		NumCPU:       runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "writers\trows/s\tbulk p50 ms\tbulk p99 ms\tcell p99 ms\tcompactions\tmax pause ms\trecovered rows")
	for _, writers := range cfg.WriterCounts {
		run, err := benchIngestRun(x, cfg, writers)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
		fmt.Fprintf(tw, "%d\t%.0f\t%.3f\t%.3f\t%.3f\t%d\t%.2f\t%d\n",
			run.Writers, run.RowsPerSec, run.BulkP50Ms, run.BulkP99Ms,
			run.CellP99Ms, run.Compactions, float64(run.MaxPauseUs)/1e3,
			run.RecoveredRows)
	}
	return res, tw.Flush()
}

func benchIngestRun(x *linalg.Matrix, cfg IngestConfig, writers int) (*IngestRun, error) {
	cold, err := core.Compress(matio.NewMem(x), core.Options{Budget: cfg.Budget, Workers: DefaultWorkers})
	if err != nil {
		return nil, fmt.Errorf("experiments: ingest: compress: %w", err)
	}
	dir, err := os.MkdirTemp("", "bench_ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "hot.wal")
	persistPath := filepath.Join(dir, "cold.sqz")
	ti, err := ingest.Open(cold, nil, walPath, ingest.Options{
		CompactAfter: cfg.CompactAfter,
		PersistPath:  persistPath,
		Workers:      DefaultWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ingest: open tier: %w", err)
	}
	h := server.NewHandler(ti, nil, server.Options{CacheRows: cfg.CacheRows})
	ts := httptest.NewServer(h)

	n, m := cold.Dims()
	var (
		appended atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
		done     = make(chan struct{})
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
	start := time.Now()
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := &http.Client{Timeout: 60 * time.Second}
			for b := 0; b < cfg.Batches; b++ {
				var sb strings.Builder
				for r := 0; r < cfg.BatchRows; r++ {
					sb.WriteString(`{"values":[`)
					for j := 0; j < m; j++ {
						if j > 0 {
							sb.WriteByte(',')
						}
						fmt.Fprintf(&sb, "%.3f", rng.NormFloat64()*40+120)
					}
					sb.WriteString("]}\n")
				}
				resp, err := client.Post(ts.URL+"/v1/bulk", "application/x-ndjson",
					strings.NewReader(sb.String()))
				if err != nil {
					fail(fmt.Errorf("bulk: %w", err))
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("bulk: status %d", resp.StatusCode))
					return
				}
				appended.Add(int64(cfg.BatchRows))
			}
		}(cfg.Seed + int64(wi))
	}
	for ri := 0; ri < cfg.Readers; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 7919))
			client := &http.Client{Timeout: 60 * time.Second}
			for {
				select {
				case <-done:
					return
				default:
				}
				var op loadOp
				if rng.Intn(4) < 3 {
					op = loadOp{method: http.MethodGet,
						path: fmt.Sprintf("/v1/cell?i=%d&j=%d", rng.Intn(n), rng.Intn(m))}
				} else {
					lo := rng.Intn(n - 10)
					op = loadOp{method: http.MethodPost, path: "/v1/aggregate",
						body: fmt.Sprintf(`{"f":"avg","rows":"%d:%d","cols":"0:10"}`, lo, lo+10)}
				}
				if err := doOp(client, ts.URL, op); err != nil {
					fail(fmt.Errorf("read: %w", err))
					return
				}
			}
		}(cfg.Seed + int64(ri))
	}

	// Wait for the writers, then release the readers. The write clock stops
	// when the last acknowledged batch returns; folding continues in the
	// background and is drained by Close below.
	writeDone := make(chan struct{})
	go func() { wg.Wait(); close(writeDone) }()
	elapsed := time.Duration(0)
	for elapsed == 0 {
		time.Sleep(5 * time.Millisecond)
		if appended.Load() >= int64(writers*cfg.Batches*cfg.BatchRows) || firstErr.Load() != nil {
			elapsed = time.Since(start)
		}
	}
	close(done)
	<-writeDone
	ts.Close()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		ti.Close()
		return nil, fmt.Errorf("experiments: ingest (%d writers): %w", writers, err)
	}

	stats := ti.Stats()
	totalRows, _ := ti.Dims()
	if err := ti.Close(); err != nil {
		return nil, err
	}

	// Recovery drill: reload the persisted cold segment (or the original,
	// when no compaction persisted one) and replay the WAL; every
	// acknowledged row must come back.
	recoverStart := time.Now()
	var coldBack store.Store = cold
	if _, err := os.Stat(persistPath); err == nil {
		coldBack, _, err = store.LoadLabeled(persistPath)
		if err != nil {
			return nil, fmt.Errorf("experiments: ingest: reload cold: %w", err)
		}
	}
	ti2, err := ingest.Open(coldBack, nil, walPath, ingest.Options{DisableBackground: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: ingest: recovery open: %w", err)
	}
	recovered, _ := ti2.Dims()
	recoverSecs := time.Since(recoverStart).Seconds()
	ti2.Close()
	if recovered != totalRows {
		return nil, fmt.Errorf("experiments: ingest: recovered %d rows, had %d", recovered, totalRows)
	}

	run := &IngestRun{
		Writers:         writers,
		RowsAppended:    stats.Appended,
		Seconds:         elapsed.Seconds(),
		RowsPerSec:      float64(stats.Appended) / elapsed.Seconds(),
		Compactions:     stats.Compactions,
		Recompressions:  stats.Recompressions,
		RowsFolded:      stats.Folded,
		MaxPauseUs:      stats.MaxCompactPauseUs,
		WalSyncs:        stats.WalSyncs,
		RecoverySeconds: recoverSecs,
		RecoveredRows:   recovered,
	}
	snap := h.Telemetry().Snapshot()
	if ep, ok := snap.Endpoints["/v1/bulk"]; ok {
		run.BulkP50Ms, run.BulkP99Ms = ep.Latency.P50Ms, ep.Latency.P99Ms
	}
	if ep, ok := snap.Endpoints["/v1/cell"]; ok {
		run.CellP50Ms, run.CellP99Ms = ep.Latency.P50Ms, ep.Latency.P99Ms
	}
	return run, nil
}

// WriteJSON writes the result to path, creating parent directories.
func (r *IngestResult) WriteJSON(path string) error {
	return writeResultJSON(r, path)
}
