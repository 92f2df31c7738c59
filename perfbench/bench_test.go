package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// smallConfig shrinks a workload so a whole run, correctness checks
// included, takes a few seconds.
func smallConfig(t *testing.T, name string, traced bool) config {
	t.Helper()
	spec, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	spec.rows = 1200
	if spec.writable {
		spec.rows = 400
	}
	cfg := defaultConfig(spec, 7, 1, traced)
	cfg.setupReps = 1
	cfg.warmup = 100 * time.Millisecond
	cfg.streamOps = 3000
	cfg.batches = 400
	cfg.dir = t.TempDir()
	return cfg
}

// summaryOf prints rep and decodes its last line.
func summaryOf(t *testing.T, rep *report) (correct bool, attempted, failed int, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out.String())
	}
	return s.Correct, s.Attempted, s.Failed, s.Metrics
}

// TestWorkloadsEndToEnd runs every workload at reduced size, untraced and
// traced, and requires every answer to check out and every metric of the
// run's kind to be present.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(smallConfig(t, w.name, traced))
				if err != nil {
					t.Fatal(err)
				}
				correct, attempted, failed, metrics := summaryOf(t, rep)
				if !correct || failed != 0 || attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", correct, attempted, failed, rep.Notes)
				}
				want := gatedEndToEnd
				if traced {
					want = nil
					for _, m := range layerCatalog {
						want = append(want, m.name)
					}
				}
				for _, name := range want {
					m, ok := metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if len(metrics) != len(want) {
					t.Errorf("summary has %d metrics, want %d", len(metrics), len(want))
				}
			})
		}
	}
}

// TestStreamsDeterministic pins the request generators: the same
// (workload, seed) renders byte-identical streams, another seed does not.
func TestStreamsDeterministic(t *testing.T) {
	sp := streamParams{rows: 10000, cols: 366, ops: 5000, poolSize: 64}
	gens := map[string]func(seed int64) []byte{
		"adhoc": func(seed int64) []byte {
			var b []byte
			for c := 0; c < maxClients; c++ {
				b = append(b, encodeStream(adhocStream(seed, c, "measure", sp))...)
			}
			return b
		},
		"ingest-reads": func(seed int64) []byte {
			return encodeStream(ingestReadStream(seed, "measure", 2000, 366, 5000))
		},
		"ingest-bulk": func(seed int64) []byte {
			return bytes.Join(newIngestData(seed, 2000, 366, 20).bodies, nil)
		},
	}
	for name, gen := range gens {
		a, b, other := gen(1), gen(1), gen(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations at seed 1 differ", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", name)
		}
	}
}

// TestStreamMix checks the ad hoc stream against its documented shape.
func TestStreamMix(t *testing.T) {
	ops := adhocStream(3, 0, "measure", streamParams{rows: 10000, cols: 366, ops: 20000, poolSize: 64})
	var count [numClasses]int
	pooled := 0
	for _, o := range ops {
		count[o.class]++
		if o.pooled {
			pooled++
		}
	}
	share := func(n int) float64 { return float64(n) / float64(len(ops)) }
	for c, want := range map[opClass]float64{classCell: 0.4, classRow: 0.1, classAgg: 0.4, classBatch: 0.1} {
		if got := share(count[c]); got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", c, got, want)
		}
	}
	if got := float64(pooled) / float64(count[classAgg]); got < 0.45 || got > 0.55 {
		t.Errorf("pooled aggregate share %.3f, want 0.5", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the same
// workloads, the summary's end-to-end metrics, and the per-layer catalog.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(names), len(workloads))
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, gatedEndToEnd) {
		t.Errorf("end_to_end %v, code reports %v", e2e, gatedEndToEnd)
	}
	if len(b.PerLayer) != len(layerCatalog) {
		t.Fatalf("per_layer has %d metrics, catalog %d", len(b.PerLayer), len(layerCatalog))
	}
	for k, m := range b.PerLayer {
		if m.Name != layerCatalog[k].name || m.Unit != layerCatalog[k].unit {
			t.Errorf("per_layer[%d] = %s %s, catalog %s %s", k, m.Name, m.Unit, layerCatalog[k].name, layerCatalog[k].unit)
		}
	}
}

// encodeStream renders a stream as bytes: one line per op with every field
// that reaches the wire or addresses the store. The determinism test
// compares these renderings.
func encodeStream(ops []op) []byte {
	var sb bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&sb, "%s %s %s %s|%d %d %v %d %d %s %s\n",
			o.class, o.method, o.path, o.body, o.i, o.j, o.recent, o.back, o.ahead, o.f, o.cols)
	}
	return []byte(sb.String())
}
