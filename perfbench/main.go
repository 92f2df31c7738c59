// Command perfbench is seqstore's repository benchmark. It runs one named
// workload against in-process servers reached over real loopback HTTP,
// checks every answer, and prints the workload's metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run alternates untraced and traced slices and reports
// the per-layer split instead. See README.md for the workloads, metrics and
// how to run a held-out seed.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload adhoc-node --seed 1 --seconds 6 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloadSpec is one named workload. Names are fixed: later changes cite
// them.
type workloadSpec struct {
	name     string
	rows     int // rows compressed at setup (the cold segment for ingest)
	cols     int
	shards   int  // > 0: a proxy over this many row-sharded store nodes
	writable bool // an ingestion tier with a bulk writer beside the reader
}

var workloads = []workloadSpec{
	{name: "adhoc-node", rows: 10000, cols: 366},
	{name: "adhoc-proxy", rows: 10000, cols: 366, shards: 2},
	{name: "ingest-mixed", rows: 2000, cols: 366, writable: true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// config is one run's settings.
type config struct {
	spec      workloadSpec
	seed      int64
	seconds   float64
	traced    bool
	setupReps int           // setups per run; setup_s is their median
	warmup    time.Duration // untimed traffic before measuring
	streamOps int           // generated ops per reader client
	batches   int           // generated bulk batches (ingest)
	poolSize  int           // dashboard selections (ad hoc)
	dir       string        // scratch directory for the run's files
}

// defaultConfig sizes a run of spec at the given seed and length.
func defaultConfig(spec workloadSpec, seed int64, seconds float64, traced bool) config {
	cfg := config{
		spec:      spec,
		seed:      seed,
		seconds:   seconds,
		traced:    traced,
		setupReps: 3,
		warmup:    500 * time.Millisecond,
		streamOps: 1000 + int(1500*seconds),
		batches:   int(seconds*bulkRowsPerSec/bulkRows) + warmBatches,
		poolSize:  64,
		dir:       filepath.Join(".bench_build", "work"),
	}
	if traced {
		// A traced run reports no setup_s; one setup carries the per-pass
		// compression split, and a longer warm-up fills the row cache so
		// its first slice is not colder than the rest.
		cfg.setupReps = 1
		cfg.warmup = 3 * time.Second
	}
	return cfg
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: adhoc-node, adhoc-proxy or ingest-mixed")
	seed := fs.Int64("seed", 1, "seed for the dataset and the request streams")
	seconds := fs.Float64("seconds", 6, "measured seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer split from a traced run")
	dir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's files (removed afterwards)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	spec, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {adhoc-node|adhoc-proxy|ingest-mixed}, -seconds > 0, -trace 0|1 (got %q, %v, %d)\n",
			*name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := defaultConfig(spec, *seed, *seconds, *traced == 1)
	cfg.dir = filepath.Join(*dir, fmt.Sprintf("%s-%d-%d", spec.name, *seed, os.Getpid()))
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// run executes one workload run end to end.
func run(cfg config) (*report, error) {
	defer os.RemoveAll(cfg.dir)
	run := runAdhoc
	if cfg.spec.writable {
		run = runIngest
	}
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// phasesFor returns the measured slices of a run: one untraced slice, or
// untraced and traced slices alternating so both see the same store state
// and cache warmth on average.
func phasesFor(cfg config) []phase {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		return []phase{{dur: total / time.Duration(cfg.setupReps)}}
	}
	// Untraced, traced, traced, untraced, twice over: both kinds sit at
	// the same mean position, so a drift across the window (a cache still
	// filling, a heap still growing) cancels out of the overhead.
	kinds := []bool{false, true, true, false, false, true, true, false}
	phases := make([]phase, len(kinds))
	for k, traced := range kinds {
		phases[k] = phase{traced: traced, dur: total / time.Duration(len(kinds))}
	}
	return phases
}

// subDir is the scratch directory of sub-run k.
func subDir(cfg config, k int) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("setup%d", k))
}
