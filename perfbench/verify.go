package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"seqstore/internal/api"
	"seqstore/internal/query"
	"seqstore/internal/store"
)

// cellTolerance is the relative difference allowed between a served cell
// or row value and the store's own reconstruction.
const cellTolerance = 1e-12

// closeTo reports whether got equals want within cellTolerance relative.
func closeTo(got, want float64) bool {
	if got == want || (math.IsNaN(got) && math.IsNaN(want)) {
		return true
	}
	return math.Abs(got-want) <= cellTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// sameBits reports bit identity, treating every NaN as equal.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// evalAggregate evaluates one aggregate request in process, serially — the
// node's query-workers default — which is the reference every served
// aggregate must match bit for bit.
func evalAggregate(s store.Store, req api.AggregateRequest, plans *query.PlanCache) (float64, error) {
	n, m := s.Dims()
	agg, err := query.ParseAggregate(req.F)
	if err != nil {
		return 0, err
	}
	rows, err := query.ParseIndexSpec(req.Rows, n)
	if err != nil {
		return 0, err
	}
	cols, err := query.ParseIndexSpec(req.Cols, m)
	if err != nil {
		return 0, err
	}
	return query.EvaluateOpts(s, agg, query.Selection{Rows: rows, Cols: cols},
		query.Options{Workers: 1, Plans: plans})
}

func aggKey(req api.AggregateRequest) string { return req.F + "|" + req.Rows + "|" + req.Cols }

// adhocVerifier checks ad hoc answers after the measured window against
// the single-node store: the reference never runs while timing.
type adhocVerifier struct {
	ref   store.Store
	plans *query.PlanCache
	rows  map[int][]float64
	aggs  map[string]float64
}

func newAdhocVerifier(ref store.Store) *adhocVerifier {
	return &adhocVerifier{ref: ref, plans: query.NewPlanCache(256),
		rows: make(map[int][]float64), aggs: make(map[string]float64)}
}

func (v *adhocVerifier) row(i int) ([]float64, error) {
	if r, ok := v.rows[i]; ok {
		return r, nil
	}
	r, err := v.ref.Row(i, nil)
	if err != nil {
		return nil, err
	}
	v.rows[i] = r
	return r, nil
}

// references evaluates every distinct aggregate the results need, on two
// goroutines.
func (v *adhocVerifier) references(results []*result) error {
	var reqs []api.AggregateRequest
	seen := make(map[string]bool)
	need := func(req api.AggregateRequest) {
		k := aggKey(req)
		if _, done := v.aggs[k]; !done && !seen[k] {
			seen[k] = true
			reqs = append(reqs, req)
		}
	}
	for _, r := range results {
		switch {
		case r.failed:
		case r.op.class == classAgg:
			need(*r.op.agg)
		case r.op.class == classBatch:
			for _, it := range r.op.batch {
				need(it)
			}
		}
	}
	vals := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < maxClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(reqs); k += maxClients {
				vals[k], errs[k] = evalAggregate(v.ref, reqs[k], v.plans)
			}
		}(w)
	}
	wg.Wait()
	for k, req := range reqs {
		if errs[k] != nil {
			return fmt.Errorf("reference %s: %w", aggKey(req), errs[k])
		}
		v.aggs[aggKey(req)] = vals[k]
	}
	return nil
}

// check verifies one successful answer; a mismatch is returned as an
// error and makes the op failed.
func (v *adhocVerifier) check(r *result) error {
	o := r.op
	switch o.class {
	case classCell:
		var cr api.CellResponse
		if err := json.Unmarshal(r.body, &cr); err != nil {
			return err
		}
		want, err := v.row(o.i)
		if err != nil {
			return err
		}
		if got := api.NumValue(cr.Value, cr.Nonfinite); cr.I != o.i || cr.J != o.j || !closeTo(got, want[o.j]) {
			return fmt.Errorf("cell (%d,%d) = %v, store reconstructs %v", o.i, o.j, got, want[o.j])
		}
	case classRow:
		var rr api.RowResponse
		if err := json.Unmarshal(r.body, &rr); err != nil {
			return err
		}
		want, err := v.row(o.i)
		if err != nil {
			return err
		}
		if rr.I != o.i || len(rr.Values) != len(want) {
			return fmt.Errorf("row %d: got row %d with %d values", o.i, rr.I, len(rr.Values))
		}
		for j, p := range rr.Values {
			if got := api.NumValue(p, ""); !closeTo(got, want[j]) {
				return fmt.Errorf("row %d col %d = %v, store reconstructs %v", o.i, j, got, want[j])
			}
		}
	case classAgg:
		var ar api.AggregateResponse
		if err := json.Unmarshal(r.body, &ar); err != nil {
			return err
		}
		want := v.aggs[aggKey(*o.agg)]
		if got := api.NumValue(ar.Value, ar.Nonfinite); !sameBits(got, want) {
			return fmt.Errorf("aggregate %s = %v, reference %v", aggKey(*o.agg), got, want)
		}
	case classBatch:
		var br api.BatchAggregateResponse
		if err := json.Unmarshal(r.body, &br); err != nil {
			return err
		}
		if len(br.Items) != len(o.batch) {
			return fmt.Errorf("batch: %d items for %d queries", len(br.Items), len(o.batch))
		}
		for k, it := range br.Items {
			want := v.aggs[aggKey(o.batch[k])]
			if got := api.NumValue(it.Value, it.Nonfinite); it.Status != 200 || !sameBits(got, want) {
				return fmt.Errorf("batch item %s: status %d value %v, reference %v", aggKey(o.batch[k]), it.Status, got, want)
			}
		}
	}
	return nil
}
