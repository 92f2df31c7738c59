package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchLoadSmall(t *testing.T) {
	cfg := LoadConfig{
		N: 120, Budget: 0.15,
		Clients: []int{2}, Requests: 24,
		OpenRPS: 120, OpenSeconds: 0.3,
		WriteFrac: 0.2, PointFrac: 0.5,
		BatchEvery: 3, BatchSize: 3,
		ProcsSweep: []int{1},
		Seed:       1,
	}
	var sb strings.Builder
	res, err := BenchLoad(cfg, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// client sweep (1) + procs sweep (1) + plan cold/warm + open loop.
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d, want 5:\n%s", len(res.Runs), sb.String())
	}
	byLabel := make(map[string]LoadRun, len(res.Runs))
	for _, r := range res.Runs {
		byLabel[r.Label] = r
		if r.Errors != 0 {
			t.Errorf("%s: %d request errors", r.Label, r.Errors)
		}
		if r.Throughput <= 0 || r.Requests <= 0 {
			t.Errorf("%s: rps=%v requests=%d", r.Label, r.Throughput, r.Requests)
		}
		agg, ok := r.Endpoints["/v1/aggregate"]
		if !ok || agg.Count == 0 {
			t.Errorf("%s: no /v1/aggregate latency recorded", r.Label)
		}
		if agg.P50Ms > agg.P99Ms || agg.P99Ms > agg.P999Ms {
			t.Errorf("%s: quantiles out of order: p50=%v p99=%v p999=%v",
				r.Label, agg.P50Ms, agg.P99Ms, agg.P999Ms)
		}
	}
	// The mixed closed-loop runs must have exercised writes and batches.
	mixed := byLabel["closed-c2"]
	if _, ok := mixed.Endpoints["/v1/bulk"]; !ok {
		t.Errorf("mixed run issued no /v1/bulk writes: %v", mixed.Endpoints)
	}
	if _, ok := mixed.Endpoints["/v1/aggregate/batch"]; !ok {
		t.Errorf("mixed run issued no batch aggregates: %v", mixed.Endpoints)
	}

	// Plan-cache pair: the cold run replans every request (cache disabled,
	// zero activity); the warm run serves mostly hits.
	cold, warm := byLabel["plan-cold"], byLabel["plan-warm"]
	if cold.PlanHits != 0 || cold.PlanMisses != 0 {
		t.Errorf("plan-cold saw cache activity: hits=%d misses=%d", cold.PlanHits, cold.PlanMisses)
	}
	if warm.PlanHits == 0 {
		t.Errorf("plan-warm recorded no plan hits (misses=%d)", warm.PlanMisses)
	}
	if warm.PlanHitRate <= 0.5 {
		t.Errorf("plan-warm hit rate = %v, want > 0.5 on a pooled workload", warm.PlanHitRate)
	}
	if res.PlanCache == nil || res.PlanCache.WarmHitRate != warm.PlanHitRate {
		t.Errorf("plan delta not derived from the warm run: %+v", res.PlanCache)
	}
	if res.PlanCache.ColdP99Ms != cold.Endpoints["/v1/aggregate"].P99Ms ||
		res.PlanCache.WarmP99Ms != warm.Endpoints["/v1/aggregate"].P99Ms {
		t.Errorf("plan delta p99s not taken from the /v1/aggregate histograms: %+v", res.PlanCache)
	}
	if res.PlanCache.ColdP99Ms <= 0 || res.PlanCache.WarmP99Ms <= 0 {
		t.Errorf("plan delta recorded zero p99s: %+v", res.PlanCache)
	}

	// Scaling verdict exists and documents the degenerate single-proc sweep.
	if res.Scaling == nil {
		t.Fatal("no scaling verdict")
	}
	if res.Scaling.BaselineProcs != 1 || res.Scaling.PeakProcs != 1 {
		t.Errorf("scaling procs = %d..%d, want 1..1 for ProcsSweep {1}",
			res.Scaling.BaselineProcs, res.Scaling.PeakProcs)
	}
	if res.Scaling.Note == "" {
		t.Error("scaling note is empty — the ceiling must be documented")
	}

	// Open-loop run records its offered rate.
	open := byLabel["open-120rps"]
	if open.Mode != "open" || open.OfferedRPS != 120 {
		t.Errorf("open run = %+v", open)
	}

	if !strings.Contains(sb.String(), "plan-warm") {
		t.Errorf("table output missing runs:\n%s", sb.String())
	}
	path := filepath.Join(t.TempDir(), "sub", "bench_load.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigDefaults(t *testing.T) {
	cfg := DefaultLoadConfig()
	if cfg.N != 2000 || len(cfg.Clients) != 4 || cfg.WriteFrac != 0.10 {
		t.Errorf("default config = %+v", cfg)
	}
	d := LoadConfig{}.withDefaults()
	if d.Requests < 1 || d.BatchEvery < 1 || d.BatchSize < 1 || len(d.ProcsSweep) == 0 {
		t.Errorf("withDefaults left zero fields: %+v", d)
	}
	if d.ProcsSweep[0] != 1 {
		t.Errorf("default procs sweep must start at 1: %v", d.ProcsSweep)
	}
}
