package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metric is one reported number with its unit, direction and the count of
// samples it summarizes.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Samples int     `json:"samples"`
}

// provenance stamps every report with what produced it.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	NumCPU     int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"git_revision"`
	Params     map[string]any `json:"params"`
}

// report is the schema every run emits, traced or not: the end-to-end
// block is filled by untraced runs, the per-layer block by traced runs.
type report struct {
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Unverified int        `json:"unverified"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
	Notes      []string   `json:"notes,omitempty"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Workload:   cfg.spec.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Params: map[string]any{
			"rows": cfg.spec.rows, "cols": cfg.spec.cols, "budget": budget,
			"clients": maxClients, "cache_rows": cacheRows, "plan_cache": 256,
			"query_workers": 1, "setup_reps": cfg.setupReps,
			"warmup_s": cfg.warmup.Seconds(), "compressor": "gram",
		},
	}
	switch {
	case cfg.spec.shards > 0:
		p.Params["shards"] = cfg.spec.shards
	case cfg.spec.writable:
		p.Params["bulk_rows"] = bulkRows
		p.Params["compact_after"] = 256
		p.Params["recompress_growth"] = 1.5
		p.Params["recompressor"] = "randomized"
	}
	if !cfg.spec.writable {
		p.Params["dashboard_pool"] = cfg.poolSize
	}
	return p
}

// revision reports the VCS revision the binary was built from, when the
// build could see one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func (r *report) add(block *[]metric, name string, v float64, unit, better string, samples int) {
	*block = append(*block, metric{Name: name, Value: v, Unit: unit, Better: better, Samples: samples})
}

// print writes the human-readable table, the full report as one JSON line,
// and last the summary line.
func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	p := r.Provenance
	fmt.Fprintf(bw, "# perfbench %s seed=%d seconds=%g traced=%v nproc=%d gomaxprocs=%d %s rev=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Traced, p.NumCPU, p.GoMaxProcs, p.GoVersion, p.Revision)
	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	for _, block := range []struct {
		title string
		ms    []metric
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}} {
		if len(block.ms) == 0 {
			continue
		}
		fmt.Fprintf(tw, "# %s\tvalue\tunit\tbetter\tsamples\n", block.title)
		for _, m := range block.ms {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", m.Name, formatValue(m.Value), m.Unit, m.Better, m.Samples)
		}
	}
	tw.Flush()
	fmt.Fprintf(bw, "# attempted=%d failed=%d unverified=%d correct=%v\n", r.Attempted, r.Failed, r.Unverified, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(bw, "# note: %s\n", n)
	}
	full, _ := json.Marshal(r)
	fmt.Fprintf(bw, "%s\n", full)
	bw.WriteString(r.summary())
	bw.WriteByte('\n')
	bw.Flush()
}

// gatedEndToEnd are the end-to-end metrics the summary line carries and
// BENCHMARK.json bounds: those every workload has and that repeat within a
// bound across runs. The rest of the end-to-end block is printed in the
// table and, for traced runs, carried in the per-layer block: error_rate
// (0 on correct code, so no share of it can bound it; failed carries it),
// the classes only some workloads have (row, batch, bulk, ingest rows/s),
// the drill, and the p99s. On a shared 2-CPU host the quartiles of ten
// runs' cell_p99_ms (adhoc-node) and agg_p99_ms (ingest-mixed) lay 60% of
// their median apart, wider than any bound a gate may use.
var gatedEndToEnd = []string{
	"setup_s", "throughput_rps", "cell_p50_ms", "agg_p50_ms", "rmspe_pct", "peak_rss_mb",
}

// summary is the last output line: exactly correct, attempted, failed and
// metrics — the end-to-end block untraced, the per-layer block traced.
func (r *report) summary() string {
	var block []metric
	if r.Provenance.Traced {
		block = r.PerLayer
	} else {
		for _, m := range r.EndToEnd {
			if slices.Contains(gatedEndToEnd, m.Name) {
				block = append(block, m)
			}
		}
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(block))
	for _, m := range block {
		ms[m.Name] = mv{Value: finite(m.Value), Unit: m.Unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(out)
}

// finite maps NaN and ±Inf (a metric with no samples) to 0, which JSON can
// carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTimes reads the machine's busy and steal jiffies from /proc/stat; a
// window's steal share tells a slow run on a shared host from a slow
// program.
func cpuTimes() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for k, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		switch {
		case k == 7:
			steal = x
		case k != 3 && k != 4: // idle, iowait
			busy += x
		}
	}
	return busy, steal
}

// stealShare is the fraction of CPU time the host took from this machine
// between two cpuTimes readings.
func stealShare(busy0, steal0, busy1, steal1 float64) float64 {
	if d := busy1 - busy0; d > 0 {
		return (steal1 - steal0) / d
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
