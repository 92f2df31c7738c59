package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"seqstore/internal/metrics"
	"seqstore/internal/query"
	"seqstore/internal/store"
)

// runStats is what one measured window produced, split by phase kind.
type runStats struct {
	all                      []*result // every measured request, both phase kinds
	untraced                 []*result
	traced                   []*result
	untracedSecs, tracedSecs float64
	wraps                    int
	gcPauseNs                uint64
	gcCycles                 uint32
	allocBytes               uint64
}

// subRun is one setup and the window measured on it. An untraced run is
// several sub-runs, each on a fresh setup, and reports the median of their
// values: a process's scheduling and memory layout, settled at setup, moved
// throughput by ±9% from run to run while the thirds of one window agreed
// within a few percent, so one setup per run left that spread in every
// number.
type subRun struct {
	rs    *runStats
	setup stageTimes
	rmspe float64
	// Ingest only.
	ackedUntraced int
	// Traced runs only; emitted after the end-to-end block is filled.
	layers *layers
}

// collect flattens per-client phase results and measures each phase's
// span: from its start to the later of its nominal end and the last
// answer to a request it sent.
func collect(s *schedule, perClient [][][]result) *runStats {
	rs := &runStats{}
	for k, ph := range s.phases {
		start := s.start
		if k > 0 {
			start = s.ends[k-1]
		}
		end := s.ends[k]
		for c := range perClient {
			for i := range perClient[c][k] {
				r := &perClient[c][k][i]
				if fin := r.start.Add(r.dur); fin.After(end) {
					end = fin
				}
				rs.all = append(rs.all, r)
				if ph.traced {
					rs.traced = append(rs.traced, r)
				} else {
					rs.untraced = append(rs.untraced, r)
				}
			}
		}
		if ph.traced {
			rs.tracedSecs += end.Sub(start).Seconds()
		} else {
			rs.untracedSecs += end.Sub(start).Seconds()
		}
	}
	return rs
}

// measure runs the schedule's closed loops and records the runtime's view
// of the window. Every window starts from a collected heap: an earlier
// setup's garbage must not decide when its first GC lands.
func measure(s func() *schedule, loops []func(*schedule) [][]result, probe *probes) (*runStats, string) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	busy0, steal0 := cpuTimes()
	sched := s()
	rs := collect(sched, drive(sched, loops, probe))
	busy1, steal1 := cpuTimes()
	runtime.ReadMemStats(&ms1)
	rs.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	rs.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rs.gcCycles = ms1.NumGC - ms0.NumGC
	return rs, fmt.Sprintf("cpu_steal=%.3f gc_cycles=%d alloc_mb=%.0f",
		stealShare(busy0, steal0, busy1, steal1), rs.gcCycles, float64(rs.allocBytes)/1e6)
}

// latencies returns the ms latencies of the given class among rs.
func latencies(rs []*result, c opClass) []float64 {
	var out []float64
	for _, r := range rs {
		if r.op != nil && r.op.class == c && !r.failed {
			out = append(out, float64(r.dur)/1e6)
		}
	}
	return out
}

// toggleProbes switches the probes on for traced phases only; it returns
// once the schedule ended.
func toggleProbes(s *schedule, probe *probes) {
	for k, ph := range s.phases {
		probe.setOn(ph.traced)
		if d := time.Until(s.ends[k]); d > 0 {
			time.Sleep(d)
		}
	}
	probe.setOn(false)
}

// drive runs every client's closed loop over the schedule and waits for
// all of them.
func drive(s *schedule, loops []func(*schedule) [][]result, probe *probes) [][][]result {
	out := make([][][]result, len(loops))
	var wg sync.WaitGroup
	for c, loop := range loops {
		wg.Add(1)
		go func(c int, loop func(*schedule) [][]result) {
			defer wg.Done()
			out[c] = loop(s)
		}(c, loop)
	}
	if probe != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			toggleProbes(s, probe)
		}()
	}
	wg.Wait()
	return out
}

// adhocRun is one ad hoc run's generated traffic; each sub-run continues
// the streams where the previous one stopped.
type adhocRun struct {
	cfg      config
	streams  [][]op
	warm     [][]op
	next     []int
	warmNext []int

	// The last sub-run's verifier and a digest of the store file it
	// checked against.
	ver    *adhocVerifier
	digest [sha256.Size]byte
}

// verifier returns the reference for d's answers. Compression is
// deterministic at a fixed worker count, so every sub-run normally saves a
// byte-identical store; the previous sub-run's references are then reused
// instead of evaluated again. A store that differs in any byte gets fresh
// references.
func (ar *adhocRun) verifier(d *deployment) (*adhocVerifier, error) {
	raw, err := os.ReadFile(d.sqz)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(raw)
	if ar.ver == nil || digest != ar.digest {
		ar.ver, ar.digest = newAdhocVerifier(d.full), digest
	}
	ar.ver.ref = d.full // the same bits; lets the previous store go
	return ar.ver, nil
}

// runAdhoc runs adhoc-node or adhoc-proxy.
func runAdhoc(cfg config) (*report, error) {
	rep := &report{Provenance: newProvenance(cfg)}
	sp := streamParams{rows: cfg.spec.rows, cols: cfg.spec.cols, ops: cfg.streamOps, poolSize: cfg.poolSize}
	ar := &adhocRun{cfg: cfg, next: make([]int, maxClients), warmNext: make([]int, maxClients)}
	for c := 0; c < maxClients; c++ {
		ar.streams = append(ar.streams, adhocStream(cfg.seed, c, "measure", sp))
		wsp := sp
		wsp.ops = 1000 + int(1000*cfg.warmup.Seconds())
		ar.warm = append(ar.warm, adhocStream(cfg.seed, c, "warm", wsp))
	}
	var subs []*subRun
	for k := 0; k < cfg.setupReps; k++ {
		sr, err := ar.subRun(rep, k)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sr)
	}
	fill(rep, cfg, subs)
	if cfg.traced {
		subs[0].layers.copyEndToEnd(rep)
		subs[0].layers.emit(rep)
	}
	return rep, nil
}

// subRun sets up once, warms up, measures its share of the window, checks
// every answer and, in a traced run, measures the layers.
func (ar *adhocRun) subRun(rep *report, k int) (*subRun, error) {
	cfg := ar.cfg
	var probe *probes
	if cfg.traced {
		probe = newProbes()
	}
	d, st, err := deploy(cfg.spec, subDir(cfg, k), probe)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	// The ad hoc stores never change, so their RMSPE is taken now and the
	// raw rows are dropped: the window's GC cycles should trace what the
	// servers hold, not the benchmark's copy of the data.
	rmspe, err := storeRMSPE(d.served(), d.raw)
	if err != nil {
		return nil, err
	}
	d.raw = nil

	tr := newTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	loops := func(ops [][]op, idx []int) []func(*schedule) [][]result {
		fs := make([]func(*schedule) [][]result, maxClients)
		for c := range fs {
			cl := &client{hc: hc, front: d.front, id: c}
			fs[c] = func(s *schedule) [][]result {
				return runLoop(s, ops[c], &idx[c], cl.sendAdhoc)
			}
		}
		return fs
	}
	drive(newSchedule(time.Now(), []phase{{dur: cfg.warmup}}), loops(ar.warm, ar.warmNext), nil)
	rs, window := measure(func() *schedule { return newSchedule(time.Now(), phasesFor(cfg)) }, loops(ar.streams, ar.next), probe)
	for c := range ar.next {
		rs.wraps += wraps(ar.next[c], len(ar.streams[c]))
	}

	// Correctness, after the window: every answer against the unsplit
	// store.
	verifyStart := time.Now()
	ver, err := ar.verifier(d)
	if err != nil {
		return nil, err
	}
	if err := ver.references(rs.all); err != nil {
		return nil, err
	}
	for _, r := range rs.all {
		if !r.failed {
			if err := ver.check(r); err != nil {
				r.failed, r.err = true, err
			}
		}
		if r.failed && len(rep.Notes) < 5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("failed %s: %v", r.op.class, r.err))
		}
	}
	var hits, misses int64
	var plans query.PlanCacheStats
	for _, h := range d.hands {
		hi, mi, _, _ := h.CacheStats()
		hits, misses = hits+hi, misses+mi
		ps := h.PlanStats()
		plans.Hits, plans.Misses = plans.Hits+ps.Hits, plans.Misses+ps.Misses
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("sub-run %d: setup_s=%.3f verify_s=%.2f ops=%d %s row_cache_hits=%.3f plan_hits=%.3f",
		k, st.total, time.Since(verifyStart).Seconds(), len(rs.all), window, ratio(hits, hits+misses), ratio(plans.Hits, plans.Hits+plans.Misses)))
	if rs.wraps > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("request streams wrapped %d times; raise streamOps", rs.wraps))
	}
	sr := &subRun{rs: rs, setup: st, rmspe: rmspe}
	if cfg.traced {
		if err := adhocLayers(rep, d, sr); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// served returns the stores the nodes serve, in row order.
func (d *deployment) served() []store.Store {
	if len(d.shards) > 0 {
		out := make([]store.Store, len(d.shards))
		for k, s := range d.shards {
			out[k] = s
		}
		return out
	}
	if d.tier != nil {
		return []store.Store{d.tier}
	}
	return []store.Store{d.full}
}

// storeRMSPE is the RMSPE, in percent, of the served stores (row-stacked)
// against the raw rows.
func storeRMSPE(parts []store.Store, raw rowSource) (float64, error) {
	var acc metrics.Accumulator
	base := 0
	for _, s := range parts {
		n, _ := s.Dims()
		for i := 0; i < n; i++ {
			rec, err := s.Row(i, nil)
			if err != nil {
				return 0, fmt.Errorf("rmspe: row %d: %w", base+i, err)
			}
			acc.AddRow(base+i, raw.Row(base+i), rec)
		}
		base += n
	}
	return 100 * acc.RMSPE(), nil
}

// rowSource yields the raw rows a store is checked against.
type rowSource interface{ Row(i int) []float64 }

// fill adds the end-to-end metrics, each the median of its sub-run values
// with the sub-runs' samples summed.
func fill(rep *report, cfg config, subs []*subRun) {
	var untraced int
	for _, sr := range subs {
		untraced += len(sr.rs.untraced)
		for _, r := range sr.rs.all {
			rep.Attempted++
			if r.failed {
				rep.Failed++
			}
			if r.unverified {
				rep.Unverified++
			}
		}
	}
	e := &rep.EndToEnd
	each := func(f func(sr *subRun) float64) float64 {
		var xs []float64
		for _, sr := range subs {
			xs = append(xs, f(sr))
		}
		return median(xs)
	}
	if !cfg.traced {
		rep.add(e, "setup_s", each(func(sr *subRun) float64 { return sr.setup.total }), "s", "lower", len(subs))
	}
	rep.add(e, "throughput_rps", each(func(sr *subRun) float64 {
		return float64(len(sr.rs.untraced)) / sr.rs.untracedSecs
	}), "1/s", "higher", untraced)
	failed := 0
	for _, sr := range subs {
		for _, r := range sr.rs.untraced {
			if r.failed {
				failed++
			}
		}
	}
	rep.add(e, "error_rate", float64(failed)/float64(max(untraced, 1)), "ratio", "lower", untraced)
	classes := []opClass{classCell, classRow, classAgg, classBatch}
	if cfg.spec.writable {
		classes = []opClass{classCell, classAgg, classBulk}
	}
	for _, c := range classes {
		n := 0
		for _, sr := range subs {
			n += len(latencies(sr.rs.untraced, c))
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"_p50_ms", 0.50}, {"_p99_ms", 0.99}} {
			rep.add(e, c.String()+q.name, each(func(sr *subRun) float64 {
				return quantile(latencies(sr.rs.untraced, c), q.q)
			}), "ms", "lower", n)
		}
	}
	if cfg.spec.writable {
		acked := 0
		for _, sr := range subs {
			acked += sr.ackedUntraced
		}
		rep.add(e, "ingest_rows_per_s", each(func(sr *subRun) float64 {
			return float64(sr.ackedUntraced) / sr.rs.untracedSecs
		}), "1/s", "higher", acked)
	}
	rep.add(e, "rmspe_pct", each(func(sr *subRun) float64 { return sr.rmspe }), "%", "lower", len(subs))
	rep.add(e, "peak_rss_mb", peakRSSMB(), "MB", "lower", 1)
}
