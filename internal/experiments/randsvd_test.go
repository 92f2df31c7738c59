package experiments

import (
	"fmt"
	"math"
	"testing"

	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// TestRandomizedMatchesGramRMSPE is the equivalence property the sketch
// compressor must hold: with enough power iterations, "randomized"
// compression reconstructs every seed dataset with an RMSPE within 1% of
// the Gram path's, at every worker count — and the worker-sharded passes
// run race-clean under `make race`.
func TestRandomizedMatchesGramRMSPE(t *testing.T) {
	const k = 8
	datasets := []struct {
		name string
		x    func() *matio.Mem
	}{
		{"stocks", func() *matio.Mem { return matio.NewMem(Stocks()) }},
		{"phone300", func() *matio.Mem { return matio.NewMem(Phone(300)) }},
		{"wide", func() *matio.Mem { return matio.NewMem(WideLowRank(90, 700, k, 11)) }},
	}
	for _, d := range datasets {
		// Gram baseline: the full eigendecomposition of C, then the
		// standard two-pass compression at cutoff k. Worker-count invariance of this path is
		// already pinned elsewhere, so one build suffices.
		gsrc := d.x()
		f, err := svd.ComputeFactorsWorkers(gsrc, 1)
		if err != nil {
			t.Fatalf("%s: gram factors: %v", d.name, err)
		}
		gst, err := svd.CompressWithFactorsWorkers(gsrc, f, k, 1)
		if err != nil {
			t.Fatalf("%s: gram compress: %v", d.name, err)
		}
		gacc, err := Eval(d.x(), gst)
		if err != nil {
			t.Fatal(err)
		}
		gram := gacc.RMSPE()

		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", d.name, workers), func(t *testing.T) {
				rst, err := svd.CompressRandWorkers(d.x(), k, svd.RandOptions{
					Rank: k, PowerIters: 4, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				racc, err := Eval(d.x(), rst)
				if err != nil {
					t.Fatal(err)
				}
				rand := racc.RMSPE()
				if math.Abs(rand-gram) > 0.01*gram+1e-12 {
					t.Errorf("randomized RMSPE %.6f vs gram %.6f: off by %.2f%%, want ≤ 1%%",
						rand, gram, 100*math.Abs(rand-gram)/gram)
				}
			})
		}
	}
}

// TestBenchRandSVDSmall runs the harness end to end at a tiny scale and
// checks the record's invariants: every path present, the randomized path's
// two-pass compression, a sub-O(M²) working set, and comparable accuracy.
func TestBenchRandSVDSmall(t *testing.T) {
	cfg := RandSVDConfig{
		PhoneN: 120, SynthN: 60, SynthM: 600,
		Rank: 6, Workers: 1, FullEigenMaxM: 600, Seed: 7,
	}
	res, err := BenchRandSVD(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 3 {
		t.Fatalf("datasets = %d, want 3", len(res.Datasets))
	}
	for _, ds := range res.Datasets {
		if len(ds.Paths) != 2 {
			t.Fatalf("%s: %d paths, want 2", ds.Dataset, len(ds.Paths))
		}
		var gram, randomized *RandSVDPath
		for i := range ds.Paths {
			p := &ds.Paths[i]
			if p.FactorNs <= 0 || p.TotalNs <= 0 {
				t.Errorf("%s/%s: non-positive timings", ds.Dataset, p.Path)
			}
			switch p.Path {
			case "gram_full":
				gram = p
			case "randomized":
				randomized = p
			}
		}
		if gram == nil || randomized == nil {
			t.Fatalf("%s: missing gram_full or randomized", ds.Dataset)
		}
		if randomized.Passes != 2 {
			t.Errorf("%s: randomized compression took %d passes, want 2",
				ds.Dataset, randomized.Passes)
		}
		gramWS := int64(8) * int64(ds.M) * int64(ds.M)
		if gram.WorkingSetBytes != gramWS {
			t.Errorf("%s: gram working set = %d, want %d", ds.Dataset, gram.WorkingSetBytes, gramWS)
		}
		if ds.M > 100 && randomized.WorkingSetBytes >= gramWS {
			t.Errorf("%s: randomized working set %d not below gram's %d",
				ds.Dataset, randomized.WorkingSetBytes, gramWS)
		}
		// Accuracy within 5% of the Gram path at the harness's default
		// PowerIters (the acceptance bound; the 1% property is pinned at
		// PowerIters=4 above).
		if diff := math.Abs(randomized.RMSPE - gram.RMSPE); diff > 0.05*gram.RMSPE+1e-12 {
			t.Errorf("%s: randomized RMSPE %.6f vs gram %.6f beyond 5%%",
				ds.Dataset, randomized.RMSPE, gram.RMSPE)
		}
	}
}
