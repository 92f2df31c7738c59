package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"seqstore/internal/linalg"
	"seqstore/internal/matio"
	"seqstore/internal/svd"
)

// RandSVDConfig sizes the sketch-compressor harness: it races the two
// pass-1 factor algorithms (the full eigendecomposition of the Gram matrix
// and the streaming randomized sketch) on the two seed datasets plus one
// deliberately wide synthetic matrix, then
// compresses with each and scores the reconstruction, so the O(M·(k+p))
// sketch path's wall-clock and accuracy trade-off is tracked in
// results/bench_randsvd.json across PRs.
type RandSVDConfig struct {
	PhoneN        int   // rows of the phone dataset (M=366)
	SynthN        int   // rows of the synthetic wide matrix
	SynthM        int   // columns of the synthetic wide matrix — the "long sequences" regime
	Rank          int   // cutoff k compared across all paths
	PowerIters    int   // randomized refinement passes (0 = library default)
	Workers       int   // worker goroutines (0 = all CPUs)
	FullEigenMaxM int   // skip the O(M³) gram_full path when M exceeds this
	Seed          int64 // synthetic data seed
}

// DefaultRandSVDConfig is the acceptance configuration: the wide matrix has
// M=5000 columns, where the M×M Gram matrix costs 200 MB and O(N·M²) flops
// while the sketch stays at O((N+M)·(k+p)) memory.
func DefaultRandSVDConfig() RandSVDConfig {
	return RandSVDConfig{
		PhoneN: 500, SynthN: 400, SynthM: 5000,
		Rank: 8, PowerIters: 0, Workers: 0, FullEigenMaxM: 512, Seed: 7,
	}
}

// RandSVDPath is one (dataset, factor algorithm) cell.
type RandSVDPath struct {
	Path            string  `json:"path"` // gram_full | randomized
	FactorNs        int64   `json:"factor_ns"`
	TotalNs         int64   `json:"total_ns"`
	FactorPasses    int64   `json:"factor_passes"`
	Passes          int64   `json:"passes"`    // full compression, factors included
	RowReads        int64   `json:"row_reads"` // full compression
	AllocBytes      uint64  `json:"alloc_bytes"`
	WorkingSetBytes int64   `json:"working_set_bytes"` // analytic factor-stage state
	RMSPE           float64 `json:"rmspe"`
	FactorSpeedup   float64 `json:"factor_speedup"` // gram_full factor time / this factor time (0 when gram_full is skipped)
}

// RandSVDDataset groups the raced paths on one matrix.
type RandSVDDataset struct {
	Dataset string        `json:"dataset"`
	N       int           `json:"n"`
	M       int           `json:"m"`
	K       int           `json:"k"`
	Paths   []RandSVDPath `json:"paths"`
}

// RandSVDResult is the harness output; serialized as
// results/bench_randsvd.json by cmd/experiments (the writer stamps
// num_cpu/gomaxprocs in).
type RandSVDResult struct {
	Rank       int              `json:"rank"`
	PowerIters int              `json:"power_iters"`
	Workers    int              `json:"workers"`
	Datasets   []RandSVDDataset `json:"datasets"`
}

// WideLowRank builds the harness's synthetic long-sequence matrix: r smooth
// column patterns with geometrically decaying weights plus a small noise
// floor, so a rank-r truncation captures almost all of the energy and every
// factor path has the same well-separated spectrum to find. Generation is
// O(n·m·r) — cheap even at m=5000 — and fully determined by seed.
func WideLowRank(n, m, r int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	patterns := linalg.NewMatrix(r, m)
	for t := 0; t < r; t++ {
		row := patterns.Row(t)
		freq := float64(t+1) * 2 * math.Pi / float64(m)
		phase := rng.Float64() * 2 * math.Pi
		for j := range row {
			row[j] = math.Sin(freq*float64(j)+phase) + 0.2*rng.NormFloat64()
		}
	}
	weights := make([]float64, r)
	for t := range weights {
		weights[t] = 40 * math.Pow(0.6, float64(t))
	}
	x := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for t := 0; t < r; t++ {
			c := weights[t] * rng.NormFloat64()
			if c == 0 {
				continue
			}
			prow := patterns.Row(t)
			for j := range row {
				row[j] += c * prow[j]
			}
		}
		for j := range row {
			row[j] += 0.1 * rng.NormFloat64()
		}
	}
	return x
}

// randSVDPathNames returns the factor paths to race on an M-column dataset:
// the full eigendecomposition is O(M³) and is skipped past
// cfg.FullEigenMaxM.
func randSVDPathNames(m int, cfg RandSVDConfig) []string {
	if m > cfg.FullEigenMaxM {
		return []string{"randomized"}
	}
	return []string{"gram_full", "randomized"}
}

// measureRandSVDPath times one factor algorithm twice over fresh sources:
// once bare (factor wall clock, pass count, heap-alloc delta) and once as a
// full compression (total wall clock, passes, row reads), then scores the
// store's reconstruction against the input.
func measureRandSVDPath(x *linalg.Matrix, path string, k int, cfg RandSVDConfig) (*RandSVDPath, error) {
	n, m := x.Dims()
	ropts := svd.RandOptions{Rank: k, PowerIters: cfg.PowerIters, Workers: cfg.Workers}

	factors := func(src matio.RowSource) (*svd.Factors, error) {
		switch path {
		case "gram_full":
			return svd.ComputeFactorsWorkers(src, cfg.Workers)
		case "randomized":
			return svd.ComputeFactorsRandWorkers(src, ropts)
		}
		return nil, fmt.Errorf("experiments: unknown randsvd path %q", path)
	}

	// Factor stage alone, bracketed by GC so the TotalAlloc delta is the
	// stage's own allocation, not a neighbor's garbage.
	fsrc := matio.NewMem(x)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fstart := time.Now()
	if _, err := factors(fsrc); err != nil {
		return nil, fmt.Errorf("experiments: randsvd %s factors: %w", path, err)
	}
	factorNs := time.Since(fstart).Nanoseconds()
	runtime.ReadMemStats(&after)

	// Full compression on a fresh source so its pass counter starts at zero.
	csrc := matio.NewMem(x)
	cstart := time.Now()
	var st *svd.Store
	var err error
	if path == "randomized" {
		st, err = svd.CompressRandWorkers(csrc, k, ropts)
	} else {
		var f *svd.Factors
		if f, err = factors(csrc); err == nil {
			st, err = svd.CompressWithFactorsWorkers(csrc, f, k, cfg.Workers)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: randsvd %s compress: %w", path, err)
	}
	totalNs := time.Since(cstart).Nanoseconds()
	snap := csrc.Stats().Snapshot()

	acc, err := Eval(matio.NewMem(x), st)
	if err != nil {
		return nil, err
	}

	b := ropts.SketchWidth(m)
	ws := int64(8) * int64(m) * int64(m) // the Gram matrix C
	if path == "randomized" {
		// sketch Y + orthonormal basis + b×b Gram + N×b U-emission buffer
		ws = int64(8) * (2*int64(m)*int64(b) + int64(b)*int64(b) + int64(n)*int64(b))
	}
	return &RandSVDPath{
		Path:            path,
		FactorNs:        factorNs,
		TotalNs:         totalNs,
		FactorPasses:    fsrc.Stats().Passes(),
		Passes:          snap.Passes,
		RowReads:        snap.RowReads,
		AllocBytes:      after.TotalAlloc - before.TotalAlloc,
		WorkingSetBytes: ws,
		RMSPE:           acc.RMSPE(),
	}, nil
}

// BenchRandSVD races the factor paths on each dataset and renders a table
// to w. Speedups are factor-stage wall clock relative to gram_full on the
// same dataset.
func BenchRandSVD(cfg RandSVDConfig, w io.Writer) (*RandSVDResult, error) {
	if cfg.Rank < 1 {
		cfg.Rank = DefaultRandSVDConfig().Rank
	}
	if cfg.FullEigenMaxM == 0 {
		cfg.FullEigenMaxM = DefaultRandSVDConfig().FullEigenMaxM
	}
	datasets := []struct {
		name string
		x    *linalg.Matrix
	}{
		{"stocks", Stocks()},
		{fmt.Sprintf("phone%d", cfg.PhoneN), Phone(cfg.PhoneN)},
		{fmt.Sprintf("synth%dx%d", cfg.SynthN, cfg.SynthM),
			WideLowRank(cfg.SynthN, cfg.SynthM, cfg.Rank, cfg.Seed)},
	}

	res := &RandSVDResult{Rank: cfg.Rank, PowerIters: cfg.PowerIters, Workers: cfg.Workers}
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tpath\tfactor ms\ttotal ms\tpasses\trow reads\tworking set\trmspe\tspeedup")
	for _, d := range datasets {
		n, m := d.x.Dims()
		ds := RandSVDDataset{Dataset: d.name, N: n, M: m, K: cfg.Rank}
		for _, path := range randSVDPathNames(m, cfg) {
			p, err := measureRandSVDPath(d.x, path, cfg.Rank, cfg)
			if err != nil {
				return nil, err
			}
			ds.Paths = append(ds.Paths, *p)
		}
		var baseNs int64
		for _, p := range ds.Paths {
			if p.Path == "gram_full" {
				baseNs = p.FactorNs
			}
		}
		for i := range ds.Paths {
			p := &ds.Paths[i]
			if baseNs > 0 && p.FactorNs > 0 {
				p.FactorSpeedup = float64(baseNs) / float64(p.FactorNs)
			}
			speedup := "-" // no gram_full baseline on this dataset
			if p.FactorSpeedup > 0 {
				speedup = fmt.Sprintf("%.2fx", p.FactorSpeedup)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%d\t%d\t%s\t%.4f\t%s\n",
				ds.Dataset, p.Path,
				float64(p.FactorNs)/1e6, float64(p.TotalNs)/1e6,
				p.Passes, p.RowReads, fmtBytes(p.WorkingSetBytes),
				p.RMSPE, speedup)
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, tw.Flush()
}

// fmtBytes renders a byte count with a binary suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// WriteJSON writes the result to path, creating parent directories.
func (r *RandSVDResult) WriteJSON(path string) error {
	return writeResultJSON(r, path)
}
