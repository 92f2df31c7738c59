package experiments

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchServerSmall(t *testing.T) {
	cfg := ServerConfig{N: 120, Budget: 0.12, CacheRows: 64, Clients: 2, Requests: 40, Seed: 1}
	var sb strings.Builder
	res, err := BenchServer(cfg, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (no-cache + cached)", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Requests != 80 || run.Errors != 0 {
			t.Errorf("%s: requests=%d errors=%d", run.Label, run.Requests, run.Errors)
		}
		if run.Throughput <= 0 {
			t.Errorf("%s: throughput %v", run.Label, run.Throughput)
		}
		if run.URowReads <= 0 {
			t.Errorf("%s: no U-row reads recorded", run.Label)
		}
		cell, ok := run.Endpoints["/v1/cell"]
		if !ok || cell.Count == 0 {
			t.Errorf("%s: missing /v1/cell latency", run.Label)
		}
	}
	nc, cached := res.Runs[0], res.Runs[1]
	if nc.CacheRows != 0 || cached.CacheRows != 64 {
		t.Errorf("run order/cache sizes wrong: %v / %v", nc.CacheRows, cached.CacheRows)
	}
	if cached.HitRate <= 0 {
		t.Errorf("cached run hit rate = %v, want > 0 under Zipf traffic", cached.HitRate)
	}
	// The cache must strictly reduce disk accesses on skewed traffic.
	if cached.URowReads >= nc.URowReads {
		t.Errorf("cached run did %d U-row reads, uncached %d — cache saved nothing",
			cached.URowReads, nc.URowReads)
	}
	if !strings.Contains(sb.String(), "no-cache") {
		t.Errorf("table output missing runs:\n%s", sb.String())
	}

	path := filepath.Join(t.TempDir(), "sub", "bench_server.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

func TestBenchServerDefaults(t *testing.T) {
	cfg := DefaultServerConfig()
	if cfg.N != 2000 || cfg.Clients != 8 || cfg.CacheRows != 1024 {
		t.Errorf("default config = %+v", cfg)
	}
	// Degenerate client/request counts are clamped, not rejected.
	res, err := BenchServer(ServerConfig{N: 60, Budget: 0.2, CacheRows: 8, Seed: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Requests != 1 {
		t.Errorf("clamped run requests = %d, want 1", res.Runs[0].Requests)
	}
}
