package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/ingest"
	"seqstore/internal/linalg"
	"seqstore/internal/query"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

const (
	// bulkRows is the rows per /v1/bulk request.
	bulkRows = 16
	// bulkRowsPerSec paces the writer in the measured window: batch b is
	// sent no earlier than b·bulkRows/bulkRowsPerSec seconds into it, and at
	// once when the writer is behind. The warm-up leaves the tier just past
	// its first recompression (see warmGrowth); at this rate the compactor
	// keeps up, folding, persisting and invalidating every 256 rows, while
	// the next recompression, about 2,400 folded rows away, stays beyond
	// any window a sub-run measures. Recompressions inside the
	// window — or a writer faster than the compactor — made every read
	// metric depend on when they landed.
	bulkRowsPerSec = 200
	// warmBatches are the generated batches reserved for the warm-up,
	// which appends about 1,800 rows (110 batches) before it stops.
	warmBatches = 200
)

// ingestData is the writer's pre-generated traffic and the truth every
// answer is checked against: rows that continue the phone generator past
// the cold segment, rounded to three decimals so the NDJSON text is their
// exact value, under labels that carry the run's seed.
type ingestData struct {
	seed     int64
	appended [][]float64
	bodies   [][]byte
}

func label(seed int64, k int) string {
	return "s" + strconv.FormatInt(seed, 10) + "-r" + strconv.Itoa(k)
}

func newIngestData(seed int64, coldRows, cols, batches int) *ingestData {
	total := batches * bulkRows
	src := dataset.NewPhoneSource(dataset.DefaultPhoneConfig(coldRows + total))
	d := &ingestData{seed: seed, appended: make([][]float64, total)}
	var sb bytes.Buffer
	for k := range d.appended {
		row := make([]float64, cols)
		src.ReadRow(coldRows+k, row) // in range by construction
		for j, v := range row {
			row[j] = math.Round(v*1000) / 1000
		}
		d.appended[k] = row
		if k%bulkRows == 0 {
			sb.Reset()
		}
		sb.WriteString(`{"label":"`)
		sb.WriteString(label(seed, k))
		sb.WriteString(`","values":[`)
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(v, 'f', 3, 64))
		}
		sb.WriteString("]}\n")
		if k%bulkRows == bulkRows-1 {
			d.bodies = append(d.bodies, append([]byte(nil), sb.Bytes()...))
		}
	}
	return d
}

// ingestRun is one sub-run's state, shared by the writer and the reader.
type ingestRun struct {
	cfg      config
	d        *deployment
	data     *ingestData
	cold     *linalg.Matrix // the generated rows of the cold segment
	acked    atomic.Int64   // acknowledged appended rows; the reader's view of the writer
	coldRows int
	// rowOf maps an acknowledged global row index to its appended row;
	// the writer fills it.
	rowOf map[int]int

	// Reader-side view of recompressions: the cold segment before the
	// latest swap, whose reconstructions a row cache may still serve until
	// the swap's invalidation hook ran.
	lastCold, prevCold store.Store
	buf                []float64

	// plans speeds up the reader's reference aggregates; it is purged
	// whenever the tier's epoch moves, so it never outlives a fold.
	plans      *query.PlanCache
	plansEpoch uint64
}

// Row returns the truth for global row i: the generated cold row, or the
// acknowledged appended row stored there.
func (ir *ingestRun) Row(i int) []float64 {
	if i < ir.coldRows {
		return ir.cold.Row(i)
	}
	return ir.data.appended[ir.rowOf[i]]
}

// write sends the next bulk batch and checks every item's acknowledgment.
func (ir *ingestRun) write(c *client, b int, traced bool) result {
	o := &op{class: classBulk, method: "POST", path: "/v1/bulk", body: ir.data.bodies[b]}
	r := c.do(o.method, o.path, "application/x-ndjson", o.body, traced)
	r.op = o
	if r.failed {
		return r
	}
	var br api.BulkResponse
	if err := json.Unmarshal(r.body, &br); err != nil || br.Errors || len(br.Items) != bulkRows {
		r.failed, r.err = true, fmt.Errorf("bulk batch %d: errors=%v items=%d (%v)", b, br.Errors, len(br.Items), err)
		return r
	}
	for k, it := range br.Items {
		g := b*bulkRows + k
		if it.Create.Status != http.StatusCreated || it.Create.Label != label(ir.data.seed, g) {
			r.failed, r.err = true, fmt.Errorf("bulk row %d: status %d label %q", g, it.Create.Status, it.Create.Label)
			return r
		}
		ir.rowOf[it.Create.Row] = g
	}
	ir.acked.Add(bulkRows)
	return r
}

// read resolves one reader op against the store's current shape, sends it
// and checks the answer in line: the store keeps changing, so the
// reference must be taken while the answer is still current.
func (ir *ingestRun) read(c *client, o *op, traced bool) result {
	tier := ir.d.tier
	if cur := tier.Cold(); cur != ir.lastCold {
		ir.prevCold, ir.lastCold = ir.lastCold, cur
	}
	e0 := tier.Epoch()
	total := ir.coldRows + int(ir.acked.Load())
	ro := *o
	var r result
	if o.class == classCell {
		if o.recent {
			ro.i = max(total-o.back, 0)
		}
		ro.method, ro.path = "GET", "/v1/cell?i="+strconv.Itoa(ro.i)+"&j="+strconv.Itoa(ro.j)
		r = c.do(ro.method, ro.path, "", nil, traced)
		r.op = &ro
		if !r.failed {
			ir.checkCell(&r, e0)
		}
		return r
	}
	boundary := tier.ColdRows()
	lo := max(boundary-o.back, 0)
	hi := min(boundary+o.ahead, total)
	if hi <= lo {
		hi = lo + 1
	}
	req := api.AggregateRequest{F: o.f, Rows: strconv.Itoa(lo) + ":" + strconv.Itoa(hi), Cols: o.cols}
	ro.agg = &req
	ro.method, ro.path = "POST", "/v1/aggregate"
	ro.body, _ = json.Marshal(req) // plain strings: cannot fail
	r = c.do(ro.method, ro.path, "application/json", ro.body, traced)
	r.op = &ro
	if r.failed {
		return r
	}
	var ar api.AggregateResponse
	if err := json.Unmarshal(r.body, &ar); err != nil {
		r.failed, r.err = true, err
		return r
	}
	got := api.NumValue(ar.Value, ar.Nonfinite)
	if e := tier.Epoch(); e != ir.plansEpoch {
		ir.plans.Invalidate()
		ir.plansEpoch = e
	}
	want, err := evalAggregate(tier, req, ir.plans)
	switch {
	case err != nil:
		r.failed, r.err = true, fmt.Errorf("reference %s: %w", aggKey(req), err)
	case sameBits(got, want):
	case tier.Epoch() != e0:
		r.unverified = true
	default:
		r.failed, r.err = true, fmt.Errorf("aggregate %s = %v, reference %v", aggKey(req), got, want)
	}
	return r
}

// checkCell accepts a served cell that equals the row's acknowledged
// value (bit for bit), the store's current reconstruction, or the
// reconstruction under the cold segment a recompression just replaced —
// the last two within cellTolerance. Until a fold's or recompression's
// invalidation hook has run, the row cache may still serve the earlier
// value.
func (ir *ingestRun) checkCell(r *result, e0 uint64) {
	var cr api.CellResponse
	if err := json.Unmarshal(r.body, &cr); err != nil {
		r.failed, r.err = true, err
		return
	}
	i, j := r.op.i, r.op.j
	got := api.NumValue(cr.Value, cr.Nonfinite)
	if i >= ir.coldRows && sameBits(got, ir.data.appended[i-ir.coldRows][j]) {
		return
	}
	want := math.NaN()
	if row, err := ir.d.tier.Row(i, ir.buf); err == nil {
		if want = row[j]; closeTo(got, want) {
			return
		}
	}
	if ir.prevCold != nil {
		if n, _ := ir.prevCold.Dims(); i < n {
			if old, err := ir.prevCold.Row(i, ir.buf); err == nil && closeTo(got, old[j]) {
				return
			}
		}
	}
	if ir.d.tier.Epoch() != e0 {
		r.unverified = true
		return
	}
	r.failed, r.err = true, fmt.Errorf("cell (%d,%d) = %v, store reconstructs %v", i, j, got, want)
}

// warmGrowth is how far the warm-up's writes will grow the cold segment
// once folded, relative to its size at open: past the -writable default
// recompression line of 1.5× by more than one compaction's worth, so the
// first recompression runs — and finishes — before the measured window.
const warmGrowth = 1.65

// warmUp reads for at least minDur and writes unpaced until folding the
// rows written so far will grow the cold segment to warmGrowth. It then
// waits for the first recompression and for the compactor to drain below
// its threshold and settle, so the measured window starts from the same
// tier state on every run and every machine. It returns the next batch to
// write.
func (ir *ingestRun) warmUp(w, r *client, reads []op, minDur time.Duration) (int, error) {
	tier := ir.d.tier
	cols := int64(ir.cfg.spec.cols)
	baseline := float64(tier.StoredNumbers()) // nothing is hot or folded yet
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			ir.read(r, &reads[k%len(reads)], false)
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	start := time.Now()
	batch := 0
	for {
		if batch == len(ir.data.bodies) {
			return 0, errors.New("ran out of generated batches")
		}
		if res := ir.write(w, batch, false); res.failed {
			return 0, res.err
		}
		batch++
		st := tier.Stats()
		if st.Recompressions > 0 {
			break
		}
		if st.Folded == 0 {
			continue
		}
		cold := float64(tier.StoredNumbers() - int64(st.HotRows)*cols)
		perRow := (cold - baseline) / float64(st.Folded)
		if baseline+perRow*float64(ir.acked.Load()) >= warmGrowth*baseline {
			break
		}
	}
	// Settled: recompressed once, fewer hot rows than wake the compactor,
	// and no maintenance for a few polls (persists and invalidation hooks
	// run after the fold or swap they follow).
	deadline := time.Now().Add(time.Minute)
	var last ingest.Stats
	quiet := 0
	for quiet < 5 || time.Since(start) < minDur {
		if time.Now().After(deadline) {
			return 0, errors.New("the tier did not recompress and drain")
		}
		time.Sleep(20 * time.Millisecond)
		st := tier.Stats()
		if st.Recompressions > 0 && st.HotRows < ingest.DefaultCompactAfter &&
			st.Compactions == last.Compactions && st.Recompressions == last.Recompressions {
			quiet++
		} else {
			quiet = 0
		}
		last = st
	}
	return batch, nil
}

// runIngest runs ingest-mixed: one bulk writer beside one reader on a
// writable tier, each sub-run ending with the durability drill.
func runIngest(cfg config) (*report, error) {
	rep := &report{Provenance: newProvenance(cfg)}
	spec := cfg.spec
	readOps := ingestReadStream(cfg.seed, "measure", spec.rows, spec.cols, cfg.streamOps)
	warmOps := ingestReadStream(cfg.seed, "warm", spec.rows, spec.cols, 2000)
	data := newIngestData(cfg.seed, spec.rows, spec.cols, cfg.batches)
	next := 0
	var subs []*subRun
	var checked, lost int
	for k := 0; k < cfg.setupReps; k++ {
		ir := &ingestRun{cfg: cfg, data: data, coldRows: spec.rows, rowOf: map[int]int{},
			buf: make([]float64, spec.cols), plans: query.NewPlanCache(256)}
		sr, err := ir.subRun(rep, k, readOps, warmOps, &next)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sr)
		l, c, err := ir.drill()
		if err != nil {
			return nil, fmt.Errorf("durability drill: %w", err)
		}
		lost, checked = lost+l, checked+c
	}
	fill(rep, cfg, subs)
	rep.Attempted += checked
	rep.Failed += lost
	rep.add(&rep.EndToEnd, "drill_rows_checked", float64(checked), "count", "", checked)
	rep.add(&rep.EndToEnd, "drill_rows_lost", float64(lost), "count", "lower", checked)
	if lost > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("durability drill: %d of %d acknowledged rows lost or wrong", lost, checked))
	}
	if cfg.traced {
		subs[0].layers.copyEndToEnd(rep)
		subs[0].layers.emit(rep)
	}
	return rep, nil
}

// subRun sets up a tier, warms it up, measures its share of the window
// and, in a traced run, measures the layers. It leaves the tier open for
// the drill, which closes it.
func (ir *ingestRun) subRun(rep *report, k int, readOps, warmOps []op, next *int) (*subRun, error) {
	cfg := ir.cfg
	var probe *probes
	if cfg.traced {
		probe = newProbes()
	}
	d, st, err := deploy(cfg.spec, subDir(cfg, k), probe)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ir.d, ir.cold = d, d.raw
	tr := newTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	writer := &client{hc: hc, front: d.front, id: 0}
	reader := &client{hc: hc, front: d.front, id: 1}

	batch, err := ir.warmUp(writer, reader, warmOps, cfg.warmup)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	first := batch
	writeLoop := func(s *schedule) [][]result {
		out := make([][]result, len(s.phases))
		interval := time.Second * bulkRows / bulkRowsPerSec
		for batch < len(ir.data.bodies) {
			if due := s.start.Add(time.Duration(batch-first) * interval); time.Until(due) > 0 {
				time.Sleep(time.Until(due))
			}
			p := s.at(time.Now())
			if p == len(s.phases) {
				break
			}
			out[p] = append(out[p], ir.write(writer, batch, s.phases[p].traced))
			batch++
		}
		return out
	}
	readLoop := func(s *schedule) [][]result {
		return runLoop(s, readOps, next, func(o *op, traced bool) result { return ir.read(reader, o, traced) })
	}
	ws := d.tier.Stats()
	rs, window := measure(func() *schedule { return newSchedule(time.Now(), phasesFor(cfg)) },
		[]func(*schedule) [][]result{writeLoop, readLoop}, probe)
	rs.wraps = wraps(*next, len(readOps))
	if batch == len(ir.data.bodies) {
		rep.Notes = append(rep.Notes, "writer ran out of generated batches; raise batches")
	}
	ts := d.tier.Stats()
	rep.Notes = append(rep.Notes, fmt.Sprintf("sub-run %d: setup_s=%.3f ops=%d %s; after warm-up appended=%d folded=%d recompressions=%d; "+
		"window compactions=%d folded=%d recompressions=%d max_compact_pause_us=%d",
		k, st.total, len(rs.all), window, ws.Appended, ws.Folded, ws.Recompressions,
		ts.Compactions-ws.Compactions, ts.Folded-ws.Folded, ts.Recompressions-ws.Recompressions, ts.MaxCompactPauseUs))
	for _, r := range rs.all {
		if r.failed && len(rep.Notes) < 8 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("failed %s: %v", r.op.class, r.err))
		}
	}
	rmspe, err := storeRMSPE(d.served(), ir)
	if err != nil {
		d.close()
		return nil, err
	}
	sr := &subRun{rs: rs, setup: st, rmspe: rmspe}
	for _, r := range rs.untraced {
		if r.op.class == classBulk && !r.failed {
			sr.ackedUntraced += bulkRows
		}
	}
	if cfg.traced {
		sr.layers = newLayers()
		windowBatches := 0
		for _, r := range rs.all {
			if r.op.class == classBulk && !r.failed {
				windowBatches++
			}
		}
		sr.layers.set("ingest.wal_syncs_per_batch", ratio(ts.WalSyncs-ws.WalSyncs, int64(windowBatches)), windowBatches)
		if err := ingestLayers(sr.layers, rep, d, rs, ir.data, st); err != nil {
			d.close()
			return nil, err
		}
	}
	return sr, nil
}

// drill ends the run: it copies the WAL and then the persisted segment
// while the tier is live (a crash image: replay skips rows the segment
// already holds, so the copy order never loses one), closes the tier
// gracefully, and reopens both images. In each, every acknowledged row
// must exist under its label; rows the crash image still holds hot must
// read back bit-exact. It returns the rows lost or wrong and the rows
// checked.
func (ir *ingestRun) drill() (lost, checked int, err error) {
	d := ir.d
	crash := filepath.Join(d.dir, "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		return 0, 0, err
	}
	for _, f := range []string{d.wal, d.sqz} {
		if err := copyFile(f, filepath.Join(crash, filepath.Base(f))); err != nil {
			return 0, 0, err
		}
	}
	for k := len(d.nodes) - 1; k >= 0; k-- {
		d.nodes[k].close()
	}
	d.nodes = nil
	if err := d.tier.Close(); err != nil {
		return 0, 0, err
	}
	d.tier = nil

	for _, dir := range []string{d.dir, crash} {
		st, labels, err := server.Open(filepath.Join(dir, filepath.Base(d.sqz)))
		if err != nil {
			return 0, 0, err
		}
		t, err := ingest.Open(st, labels, filepath.Join(dir, filepath.Base(d.wal)), ingest.Options{DisableBackground: true})
		if err != nil {
			return 0, 0, err
		}
		buf := make([]float64, ir.cfg.spec.cols)
		for idx, g := range ir.rowOf {
			checked++
			at, ok := t.LookupRow(label(ir.data.seed, g))
			if !ok || at != idx {
				lost++
				continue
			}
			if t.IsHot(idx) {
				row, err := t.Row(idx, buf)
				if err != nil || !rowsIdentical(row, ir.data.appended[g]) {
					lost++
				}
			}
		}
		if err := t.Close(); err != nil {
			return 0, 0, err
		}
	}
	return lost, checked, d.close()
}

func rowsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if !sameBits(a[j], b[j]) {
			return false
		}
	}
	return true
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ingestLayers fills the per-layer block of a traced ingest run while the
// tier is still live.
func ingestLayers(l *layers, rep *report, d *deployment, rs *runStats, data *ingestData, setup stageTimes) error {
	commonLayers(l, d, rs)
	if err := compressionLayers(l, d, setup); err != nil {
		return err
	}
	ledgerLayers(l, rep, rs)
	if c, ok := d.tier.Cold().(*core.Store); ok {
		p, sv := c.ProbeStats()
		l.set("core.bloom_save_ratio", ratio(sv, p+sv), int(p+sv))
	}
	if err := queryLayers(l, d.tier, rs); err != nil {
		return err
	}
	coreLayers(l, d.tier, rs)

	// Counts over the tier's life, warm-up included: the warm-up's
	// recompression is the run's only one.
	st := d.tier.Stats()
	l.set("ingest.compactions", float64(st.Compactions), 1)
	l.set("ingest.rows_folded", float64(st.Folded), 1)
	l.set("ingest.compact_pause_us_max", float64(st.MaxCompactPauseUs), int(st.Compactions))
	l.set("ingest.recompressions", float64(st.Recompressions), 1)

	// Bulk decoding as the handler does it: each NDJSON line into a generic
	// object, then into the typed document.
	bodies := data.bodies[:min(len(data.bodies), replaySamples)]
	l.setMedian("api.decode_us.bulk", timeEach(len(bodies), 3, func(k int) {
		sc := bufio.NewScanner(bytes.NewReader(bodies[k]))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var obj map[string]json.RawMessage
			json.Unmarshal(sc.Bytes(), &obj)
			var doc api.BulkDoc
			json.Unmarshal(sc.Bytes(), &doc)
		}
	}))
	if err := privateTier(l, d, data, bodies); err != nil {
		return err
	}
	unattributed(l, d, rs)
	return nil
}

// privateTier replays the recorded bulk batches through AppendBatch on a
// private tier over the persisted cold segment, then times a full
// Recompress of it.
func privateTier(l *layers, d *deployment, data *ingestData, bodies [][]byte) error {
	st, labels, err := server.Open(d.sqz)
	if err != nil {
		return err
	}
	t, err := ingest.Open(st, labels, filepath.Join(d.dir, "private.wal"), ingest.Options{DisableBackground: true})
	if err != nil {
		return err
	}
	defer t.Close()
	var appendMs []float64
	rows := 0
	for b := range bodies {
		lbls := make([]string, bulkRows)
		vals := make([][]float64, bulkRows)
		for k := range vals {
			lbls[k] = "private-" + label(data.seed, b*bulkRows+k)
			vals[k] = data.appended[b*bulkRows+k]
		}
		start := time.Now()
		if _, err := t.AppendBatch(context.Background(), lbls, vals); err != nil {
			return err
		}
		appendMs = append(appendMs, float64(time.Since(start))/1e6)
		rows += bulkRows
	}
	l.setMedian("ingest.append_ms", appendMs)
	l.set("ingest.wal_bytes_per_row", float64(t.Stats().WalBytes)/float64(max(rows, 1)), rows)
	start := time.Now()
	if err := t.Recompress(); err != nil {
		return err
	}
	l.set("ingest.recompress_s", time.Since(start).Seconds(), 1)
	return nil
}
