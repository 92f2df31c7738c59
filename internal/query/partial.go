package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"seqstore/internal/exact"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/store"
	"seqstore/internal/trace"
)

// This file is the distributed half of the query engine: evaluating a
// selection fragment into a mergeable Partial on a store node, and
// gathering shard partials back into the final aggregate on the proxy.
//
// The invariant the distributed tier is built on: because every
// cross-fragment reduction (cell sums, factored row moments, Gram
// matrices, SVDD delta corrections) is an exact.Sum superaccumulator,
// partial evaluation commutes with partitioning — any split of the
// selection's rows across shards, evaluated with any worker counts,
// merges to the bit-identical result of a single-node evaluation. The
// final rounding happens once, in finalize code shared verbatim between
// evaluate() and MergePartials.

// RowRange is a contiguous half-open range [Lo, Hi) of global row
// indices. Hi < 0 means unbounded (the range owns every row ≥ Lo).
type RowRange struct {
	Lo, Hi int
}

// Contains reports whether global row i falls in the range.
func (r RowRange) Contains(i int) bool {
	return i >= r.Lo && (r.Hi < 0 || i < r.Hi)
}

// SplitSelection partitions sel across contiguous shard row ranges,
// translating each row to its shard-local index (global − Lo). Row order
// — and therefore multiset duplicate weighting — is preserved within each
// shard. Columns are not sharded: every non-empty fragment carries the
// full column list (aliasing sel.Cols). A row covered by no range is an
// out-of-range error; shards with no selected rows get an empty fragment.
func SplitSelection(sel Selection, ranges []RowRange) ([]Selection, error) {
	out := make([]Selection, len(ranges))
	last := 0 // range memo: selections cluster into runs
	for _, i := range sel.Rows {
		s := -1
		if last < len(ranges) && ranges[last].Contains(i) {
			s = last
		} else {
			for ri := range ranges {
				if ranges[ri].Contains(i) {
					s = ri
					break
				}
			}
		}
		if s < 0 {
			return nil, fmt.Errorf("query: row %d not covered by any shard range (%w)", i, seqerr.ErrOutOfRange)
		}
		last = s
		out[s].Rows = append(out[s].Rows, i-ranges[s].Lo)
	}
	for s := range out {
		if len(out[s].Rows) > 0 {
			out[s].Cols = sel.Cols
		}
	}
	return out, nil
}

// Partial is the exact, mergeable state of one selection fragment's
// aggregate evaluation — what a store node returns to the proxy. Merging
// partials from any partition of the selection reproduces the single-node
// result bit for bit (see MergePartials).
//
// Two shapes share the struct: the cells shape (projected/generic engine:
// Min/Max, non-SVD stores, plus Count which is data-free) carries the
// fragment's accumulator state; the factored shape carries exact row
// moments, the replicated column moments and σ (bitwise identical on
// every shard of the same factorization), and the SVDD delta corrections.
type Partial struct {
	Agg      Aggregate
	Factored bool
	NumCells int64 // |fragment rows| · |cols|

	// Cells shape.
	N          int64
	Sum, SumSq exact.Sum
	Min, Max   float64

	// Factored shape.
	K                  int
	WantSq             bool // second moments present (StdDev)
	HasCorr            bool // store is SVDD: corrections are meaningful
	RowSum             []exact.Sum
	RowG               []exact.Sum // k×k row-major, upper triangle (WantSq)
	ColSum             []exact.Sum
	ColG               []exact.Sum // k×k row-major, upper triangle (WantSq)
	Sigma              []float64
	CorrSum, CorrSumSq exact.Sum
}

// EvaluatePartial evaluates the fragment sel on s into a mergeable
// Partial, using the same engine paths (and the same ledger charging) as
// EvaluateOpts. The selection must be non-empty and within the store's
// local dimensions.
func EvaluatePartial(s store.Store, agg Aggregate, sel Selection, opts Options) (*Partial, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	env := evalEnv{
		workers: matio.NumWorkers(opts.Workers),
		plans:   opts.Plans,
		led:     trace.LedgerFrom(ctx),
	}
	return evaluatePartial(ctx, s, agg, sel, env)
}

// evaluatePartial is the shared core behind EvaluatePartial and
// EvaluateBatchPartial.
func evaluatePartial(ctx context.Context, s store.Store, agg Aggregate, sel Selection, env evalEnv) (*Partial, error) {
	n, m := s.Dims()
	if err := sel.Validate(n, m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &Partial{Agg: agg, NumCells: int64(sel.NumCells())}
	if agg == Count {
		p.N = p.NumCells
		return p, nil
	}
	pl := planFor(s, sel, env)
	if pl.base != nil && (agg == Sum || agg == Avg || agg == StdDev) {
		wantSq := agg == StdDev
		fs := factoredPool.Get().(*factoredState)
		defer factoredPool.Put(fs)
		if err := rowMomentsInto(ctx, pl, env, fs, wantSq); err != nil {
			return nil, err
		}
		colMomentsInto(pl.base.V(), pl.cols, pl.base.K(), wantSq, &fs.vm)
		var corr corrections
		if pl.svdd != nil {
			var err error
			corr, err = deltaCorrections(ctx, pl.svdd, sel, wantSq, env)
			if err != nil {
				return nil, err
			}
		}
		p.Factored = true
		p.K = pl.base.K()
		p.WantSq = wantSq
		p.HasCorr = pl.svdd != nil
		p.RowSum = append([]exact.Sum(nil), fs.um.acc...)
		p.ColSum = append([]exact.Sum(nil), fs.vm.acc...)
		if wantSq {
			p.RowG = append([]exact.Sum(nil), fs.um.g...)
			p.ColG = append([]exact.Sum(nil), fs.vm.g...)
		}
		p.Sigma = append([]float64(nil), pl.sigma...)
		p.CorrSum, p.CorrSumSq = corr.sum, corr.sumSq
		return p, nil
	}
	acc, err := evaluateCells(ctx, s, sel, env, pl)
	if err != nil {
		return nil, err
	}
	p.N, p.Sum, p.SumSq, p.Min, p.Max = acc.n, acc.sum, acc.sumSq, acc.min, acc.max
	return p, nil
}

// PartialResult is one item's outcome in EvaluateBatchPartial; items fail
// independently like BatchResult.
type PartialResult struct {
	Partial *Partial
	Err     error
}

// EvaluateBatchPartial is EvaluateBatch's partial-returning twin: it
// evaluates every item's fragment into a Partial, sharing one coalesced
// prefetch pass over the U-row union exactly as EvaluateBatch does. The
// shared buffer changes only where U bits are read from, so each Partial
// is bit-identical to an independent EvaluatePartial call.
func EvaluateBatchPartial(s store.Store, items []BatchItem, opts Options) ([]PartialResult, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	env := evalEnv{
		workers: matio.NumWorkers(opts.Workers),
		plans:   opts.Plans,
		led:     trace.LedgerFrom(ctx),
	}
	results := make([]PartialResult, len(items))
	if len(items) == 0 {
		return results, nil
	}
	n, m := s.Dims()
	for idx := range items {
		if err := items[idx].Sel.Validate(n, m); err != nil {
			results[idx].Err = err
		}
	}
	if base := factoredBase(s); base != nil {
		env.buf = prefetchBatchUnion(base, n, items, func(idx int) bool { return results[idx].Err != nil }, env.led)
	}
	for idx := range items {
		if results[idx].Err != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return results, err
		}
		p, err := evaluatePartial(ctx, s, items[idx].Agg, items[idx].Sel, env)
		results[idx] = PartialResult{Partial: p, Err: err}
	}
	return results, nil
}

// MergePartials gathers shard partials into the final aggregate value.
// Partials must all carry agg and the same shape; the replicated factors
// (σ, column moments) must be bitwise identical across shards — a
// mismatch means the shards do not hold slices of the same factorization
// and is reported as an error rather than silently mis-merged. Merge
// order does not matter: every cross-shard reduction is exact.
//
// The returned value is bit-identical to evaluating the unsplit selection
// on a single node holding the whole store, because the exact partial
// states merge associatively and the final rounding runs through the same
// finalize code evaluate() uses.
func MergePartials(agg Aggregate, parts []*Partial) (float64, error) {
	live := parts[:0:0]
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return 0, ErrEmptySelection
	}
	var numCells int64
	for _, p := range live {
		if p.Agg != agg {
			return 0, fmt.Errorf("query: partial carries aggregate %v, want %v", p.Agg, agg)
		}
		numCells += p.NumCells
	}
	if agg == Count {
		return float64(numCells), nil
	}
	first := live[0]
	if !first.Factored {
		var total accum
		total.reset()
		for _, p := range live {
			if p.Factored {
				return 0, fmt.Errorf("query: mixed factored and cells partials")
			}
			b := accum{n: p.N, sum: p.Sum, sumSq: p.SumSq, min: p.Min, max: p.Max}
			total.Merge(&b)
		}
		return total.result(agg)
	}
	k := first.K
	for _, p := range live[1:] {
		if !p.Factored || p.K != k || p.WantSq != first.WantSq || p.HasCorr != first.HasCorr {
			return 0, fmt.Errorf("query: inconsistent factored partial shapes")
		}
		if !sameFloats(p.Sigma, first.Sigma) || !sameSums(p.ColSum, first.ColSum) ||
			(first.WantSq && !sameSums(p.ColG, first.ColG)) {
			return 0, fmt.Errorf("query: shards disagree on replicated factors (not slices of one factorization?)")
		}
	}
	um := &uMoments{k: k, wantSq: first.WantSq, acc: append([]exact.Sum(nil), first.RowSum...)}
	if first.WantSq {
		um.g = append([]exact.Sum(nil), first.RowG...)
	}
	corr := corrections{sum: first.CorrSum, sumSq: first.CorrSumSq}
	for _, p := range live[1:] {
		if len(p.RowSum) != k || (first.WantSq && len(p.RowG) != k*k) {
			return 0, fmt.Errorf("query: malformed factored partial")
		}
		for i := range um.acc {
			um.acc[i].Merge(&p.RowSum[i])
		}
		if first.WantSq {
			for i := range um.g {
				um.g[i].Merge(&p.RowG[i])
			}
		}
		corr.sum.Merge(&p.CorrSum)
		corr.sumSq.Merge(&p.CorrSumSq)
	}
	vm := &uMoments{k: k, wantSq: first.WantSq, acc: first.ColSum, g: first.ColG}
	switch agg {
	case Sum:
		return finalizeFactoredSum(first.Sigma, um.acc, vm.acc, &corr, first.HasCorr), nil
	case Avg:
		return finalizeFactoredSum(first.Sigma, um.acc, vm.acc, &corr, first.HasCorr) / float64(numCells), nil
	case StdDev:
		return finalizeFactoredStdDev(k, first.Sigma, um, vm, &corr, first.HasCorr, float64(numCells)), nil
	default:
		return 0, fmt.Errorf("query: aggregate %v cannot carry factored partials", agg)
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSums(a, b []exact.Sum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// Wire encoding of a Partial: a versioned, length-checked binary frame
// (base64-wrapped by internal/api when embedded in JSON). Binary rather
// than JSON floats because the payload is mostly superaccumulator
// registers, and because Min/Max/corrections may legitimately be NaN/±Inf
// which JSON numbers cannot carry.
//
//	magic "SQP1"
//	agg u8 · flags u8 (1 factored, 2 wantSq, 4 hasCorr) · numCells i64
//	cells:    n i64 · min u64(bits) · max u64(bits) · sum · sumSq
//	factored: k u32 · rowSum k · colSum k · sigma k×u64(bits)
//	          [rowG, colG: upper triangle, k(k+1)/2 each] · corrSum · corrSumSq
//
// exact.Sum fields use their own fixed-size encoding; all integers are
// little-endian. Gram matrices travel as the packed upper triangle (the
// lower is never read) and are unpacked to row-major k×k on decode.
const partialMagic = "SQP1"

// maxPartialK bounds the decoded rank: a defense against hostile or
// corrupt frames allocating k² accumulators.
const maxPartialK = 1 << 12

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *Partial) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, p.encodedSize())
	buf = append(buf, partialMagic...)
	buf = append(buf, byte(p.Agg))
	var flags byte
	if p.Factored {
		flags |= 1
	}
	if p.WantSq {
		flags |= 2
	}
	if p.HasCorr {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.NumCells))
	if !p.Factored {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.N))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Max))
		buf = p.Sum.AppendBinary(buf)
		buf = p.SumSq.AppendBinary(buf)
		return buf, nil
	}
	k := p.K
	if len(p.RowSum) != k || len(p.ColSum) != k || len(p.Sigma) != k ||
		(p.WantSq && (len(p.RowG) != k*k || len(p.ColG) != k*k)) {
		return nil, fmt.Errorf("query: malformed partial: k=%d with %d/%d/%d moments", k, len(p.RowSum), len(p.ColSum), len(p.Sigma))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	for i := range p.RowSum {
		buf = p.RowSum[i].AppendBinary(buf)
	}
	for i := range p.ColSum {
		buf = p.ColSum[i].AppendBinary(buf)
	}
	for _, s := range p.Sigma {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	if p.WantSq {
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				buf = p.RowG[a*k+b].AppendBinary(buf)
			}
		}
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				buf = p.ColG[a*k+b].AppendBinary(buf)
			}
		}
	}
	buf = p.CorrSum.AppendBinary(buf)
	buf = p.CorrSumSq.AppendBinary(buf)
	return buf, nil
}

// sumEncSize is the fixed exact.Sum encoding length.
var sumEncSize = len((&exact.Sum{}).AppendBinary(nil))

func (p *Partial) encodedSize() int {
	n := len(partialMagic) + 2 + 8
	if !p.Factored {
		return n + 3*8 + 2*sumEncSize
	}
	k := p.K
	n += 4 + 2*k*sumEncSize + k*8 + 2*sumEncSize
	if p.WantSq {
		n += 2 * (k * (k + 1) / 2) * sumEncSize
	}
	return n
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with strict
// length and bounds checks — a malformed frame errors, never panics.
func (p *Partial) UnmarshalBinary(data []byte) error {
	if len(data) < len(partialMagic)+2+8 || string(data[:len(partialMagic)]) != partialMagic {
		return fmt.Errorf("query: bad partial frame header")
	}
	d := data[len(partialMagic):]
	agg := Aggregate(d[0])
	if agg < Sum || agg > StdDev {
		return fmt.Errorf("query: bad partial aggregate %d", d[0])
	}
	flags := d[1]
	if flags&^7 != 0 {
		return fmt.Errorf("query: bad partial flags %#x", flags)
	}
	d = d[2:]
	*p = Partial{
		Agg:      agg,
		Factored: flags&1 != 0,
		WantSq:   flags&2 != 0,
		HasCorr:  flags&4 != 0,
		NumCells: int64(binary.LittleEndian.Uint64(d)),
	}
	d = d[8:]
	takeSum := func(dst *exact.Sum) error {
		if len(d) < sumEncSize {
			return fmt.Errorf("query: short partial frame")
		}
		if err := dst.UnmarshalBinary(d[:sumEncSize]); err != nil {
			return err
		}
		d = d[sumEncSize:]
		return nil
	}
	takeU64 := func() (uint64, error) {
		if len(d) < 8 {
			return 0, fmt.Errorf("query: short partial frame")
		}
		v := binary.LittleEndian.Uint64(d)
		d = d[8:]
		return v, nil
	}
	if !p.Factored {
		n, err := takeU64()
		if err != nil {
			return err
		}
		mn, err := takeU64()
		if err != nil {
			return err
		}
		mx, err := takeU64()
		if err != nil {
			return err
		}
		p.N, p.Min, p.Max = int64(n), math.Float64frombits(mn), math.Float64frombits(mx)
		if err := takeSum(&p.Sum); err != nil {
			return err
		}
		if err := takeSum(&p.SumSq); err != nil {
			return err
		}
		if len(d) != 0 {
			return fmt.Errorf("query: trailing bytes in partial frame")
		}
		return nil
	}
	if len(d) < 4 {
		return fmt.Errorf("query: short partial frame")
	}
	k := int(binary.LittleEndian.Uint32(d))
	d = d[4:]
	if k < 1 || k > maxPartialK {
		return fmt.Errorf("query: partial rank %d out of bounds", k)
	}
	p.K = k
	// The rank and flags fix the frame length; checking it before
	// allocating keeps a forged rank from costing k² accumulators.
	if want := p.encodedSize(); len(data) != want {
		return fmt.Errorf("query: partial frame of rank %d is %d bytes, want %d", k, len(data), want)
	}
	p.RowSum = make([]exact.Sum, k)
	p.ColSum = make([]exact.Sum, k)
	p.Sigma = make([]float64, k)
	for i := range p.RowSum {
		if err := takeSum(&p.RowSum[i]); err != nil {
			return err
		}
	}
	for i := range p.ColSum {
		if err := takeSum(&p.ColSum[i]); err != nil {
			return err
		}
	}
	for i := range p.Sigma {
		v, err := takeU64()
		if err != nil {
			return err
		}
		p.Sigma[i] = math.Float64frombits(v)
	}
	if p.WantSq {
		p.RowG = make([]exact.Sum, k*k)
		p.ColG = make([]exact.Sum, k*k)
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				if err := takeSum(&p.RowG[a*k+b]); err != nil {
					return err
				}
			}
		}
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				if err := takeSum(&p.ColG[a*k+b]); err != nil {
					return err
				}
			}
		}
	}
	if err := takeSum(&p.CorrSum); err != nil {
		return err
	}
	if err := takeSum(&p.CorrSumSq); err != nil {
		return err
	}
	if len(d) != 0 {
		return fmt.Errorf("query: trailing bytes in partial frame")
	}
	return nil
}
