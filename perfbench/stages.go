package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"dust"
	"dust/internal/align"
	"dust/internal/cluster"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// Pipeline defaults the replica reproduces (dust.New).
const (
	topTables   = 10
	dustP       = 2    // diversify.NewDUST: clusters = K*P
	dustS       = 2500 // diversify.NewDUST: prune cap
	minCoverage = 1.0 / 3
)

// stageTimes is one replayed query: per-stage wall time in ms and the
// work counts behind it.
type stageTimes struct {
	topk, embedCols, holistic, union, embedTuples, selectMS float64
	total                                                   float64 // the traced replica end to end
	matrix                                                  float64 // DUST's distance matrix, timed alone
	columns, produced, kept, tuples, pairs                  int
}

func (t stageTimes) sum() float64 {
	return t.topk + t.embedCols + t.holistic + t.union + t.embedTuples + t.selectMS
}

// replica runs Algorithm 1 stage by stage through each layer's public
// functions, timing every call, over its own copy of the served index.
type replica struct {
	lake     *lake.Lake
	searcher *search.Starmie
	colEnc   embed.ColumnEncoder
	tupleEnc model.TupleEncoder
}

func newReplica(lk *lake.Lake, st *search.Starmie) *replica {
	ml := lk.Clone()
	return &replica{
		lake:     ml,
		searcher: st.CloneWithLake(ml).(*search.Starmie),
		colEnc:   embed.ColumnLevel{Model: embed.NewRoBERTa()},
		tupleEnc: embed.NewRoBERTa(embed.WithAnisotropy(0.05)),
	}
}

// apply mirrors one mutation the way dust.Pipeline sequences lake and index.
func (r *replica) apply(o *op) error {
	if o.class == classPut {
		if err := r.lake.Add(o.table); err != nil {
			return err
		}
		return r.searcher.AddTable(o.table)
	}
	if err := r.searcher.RemoveTable(o.name); err != nil {
		return err
	}
	return r.lake.Remove(o.name)
}

// search replays dust.Pipeline.SearchContext at one worker per stage.
func (r *replica) search(ctx context.Context, q *table.Table) ([]table.Provenance, stageTimes, error) {
	var t stageTimes
	begin := time.Now()
	mark := begin
	lap := func() float64 {
		now := time.Now()
		d := ms(now.Sub(mark))
		mark = now
		return d
	}

	hits, err := search.TopKCtx(ctx, r.searcher.QueryWorkers(1), q, topTables)
	if err != nil {
		return nil, t, err
	}
	tables := make([]*table.Table, len(hits))
	for i, h := range hits {
		tables[i] = h.Table
	}
	t.topk = lap()
	if len(tables) == 0 {
		return nil, t, fmt.Errorf("no unionable tables")
	}

	cols := align.EmbedColumns(q, tables, r.colEnc)
	t.embedCols = lap()
	headers, mappings, err := align.HolisticWorkers(cols, 1).Mappings(q, tables)
	if err != nil {
		return nil, t, err
	}
	t.holistic = lap()
	t.columns = len(cols)

	unioned, prov, err := table.OuterUnion(q.Name+"_unionable", headers, mappings)
	if err != nil {
		return nil, t, err
	}
	t.produced = unioned.NumRows()
	keep := coverageRows(unioned, minCoverage)
	if len(keep) == 0 {
		keep = coverageRows(unioned, 0)
	}
	if len(keep) < unioned.NumRows() {
		if unioned, err = unioned.Select(unioned.Name, keep); err != nil {
			return nil, t, err
		}
		kept := make([]table.Provenance, len(keep))
		for i, row := range keep {
			kept[i] = prov[row]
		}
		prov = kept
	}
	t.union = lap()
	t.kept = unioned.NumRows()
	if t.kept == 0 {
		return nil, t, fmt.Errorf("no unionable tuples")
	}

	eq, err := model.EncodeBatchContext(ctx, r.tupleEnc, headers, toWire(q).Rows, 1)
	if err != nil {
		return nil, t, err
	}
	et, err := model.EncodeBatchContext(ctx, r.tupleEnc, headers, toWire(unioned).Rows, 1)
	if err != nil {
		return nil, t, err
	}
	t.embedTuples = lap()
	t.tuples = len(eq) + len(et)

	groups := make([]int, len(prov))
	ids := map[string]int{}
	for i, p := range prov {
		g, ok := ids[p.Table]
		if !ok {
			g = len(ids)
			ids[p.Table] = g
		}
		groups[i] = g
	}
	lap()
	prob := diversify.Problem{Query: eq, Tuples: et, Groups: groups, K: k,
		Dist: vector.CosineDistance, Workers: 1}
	idx := diversify.NewDUST().Select(prob)
	t.selectMS = lap()

	out := make([]table.Provenance, len(idx))
	for i, j := range idx {
		out[i] = prov[j]
	}
	t.total = ms(time.Since(begin))
	t.matrix, t.pairs = matrixCost(prob)
	return out, t, nil
}

// matrixCost times, on its own, the pairwise distance matrix DUST's
// clustering step builds for prob: over the pruned survivors, skipped when
// there are no more of them than clusters.
func matrixCost(prob diversify.Problem) (float64, int) {
	kept := prob.Tuples
	if len(kept) > dustS {
		kept = nil
		for _, i := range diversify.Prune(prob, dustS) {
			kept = append(kept, prob.Tuples[i])
		}
	}
	n := len(kept)
	if prob.K*dustP >= n {
		return 0, 0
	}
	start := time.Now()
	cluster.NewMatrixWorkers(kept, prob.Dist, prob.Workers)
	return ms(time.Since(start)), n * (n - 1) / 2
}

// coverageRows is dust's coverage filter: rows with at least one non-null
// cell and a non-null fraction of at least min.
func coverageRows(t *table.Table, min float64) []int {
	var keep []int
	for i := 0; i < t.NumRows(); i++ {
		filled := 0
		for j := 0; j < t.NumCols(); j++ {
			if t.Cell(i, j) != table.Null {
				filled++
			}
		}
		if filled > 0 && float64(filled) >= min*float64(t.NumCols()) {
			keep = append(keep, i)
		}
	}
	return keep
}

// replayed accumulates the traced pass.
type replayed struct {
	queries                      []stageTimes
	search                       []float64 // untraced Pipeline.SearchContext, ms
	clone, addTable, removeTable []float64
	attempted, failed            int
	firstFailure                 string
}

func (r *replayed) fail(format string, args ...any) {
	if r.failed == 0 {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
	r.failed++
}

// replay re-runs the served history in epoch order (see walk): each
// mutation through dust.Pipeline.Clone and AddTable or RemoveTable, timed,
// and through the replica's mirror; each search both untraced through
// Pipeline.SearchContext and traced through the replica, at the state the
// server answered it from. Both must select exactly the server's rows.
func replay(p0 *dust.Pipeline, st *search.Starmie, lk *lake.Lake, searches, mutations []*sample) *replayed {
	ctx := context.Background()
	rep := newReplica(lk, st)
	out := &replayed{}
	mutate := func(p *dust.Pipeline, m *sample) (*dust.Pipeline, error) {
		out.attempted++
		start := time.Now()
		c, err := p.Clone()
		if err != nil {
			return nil, err
		}
		out.clone = append(out.clone, ms(time.Since(start)))
		start = time.Now()
		if m.op.class == classPut {
			err = c.AddTable(m.op.table)
			out.addTable = append(out.addTable, ms(time.Since(start)))
		} else {
			err = c.RemoveTable(m.op.name)
			out.removeTable = append(out.removeTable, ms(time.Since(start)))
		}
		if err != nil {
			return nil, err
		}
		return c, rep.apply(m.op)
	}
	visit := func(p *dust.Pipeline, qs []*sample) {
		for _, s := range qs {
			out.attempted++
			// Alternate which side runs first so neither always finds
			// the caches warm.
			var res *dust.Result
			var err error
			var took float64
			untraced := func() {
				start := time.Now()
				res, err = p.QueryBound(1).SearchContext(ctx, s.op.query, k)
				took = ms(time.Since(start))
			}
			first := len(out.search)%2 == 0
			if first {
				untraced()
			}
			prov, times, rerr := rep.search(ctx, s.op.query)
			if !first {
				untraced()
			}
			switch {
			case err != nil || rerr != nil:
				out.fail("replay at epoch %d: %v / %v", s.epoch, err, rerr)
			case !sameRows(res.Provenance, s.resp.Provenance) || !sameRows(prov, s.resp.Provenance):
				out.fail("replay at epoch %d selected other rows than the server", s.epoch)
			default:
				out.search = append(out.search, took)
				out.queries = append(out.queries, times)
			}
		}
	}
	if err := walk(p0, mutations, searches, mutate, visit); err != nil {
		out.fail("%v", err)
	}
	return out
}

func sameRows(a []table.Provenance, b []provenance) bool {
	return slices.EqualFunc(a, b, func(x table.Provenance, y provenance) bool {
		return x.Table == y.Table && x.Row == y.Row
	})
}

// metrics reduces the replay to per-layer metrics: stage times are means
// per query, so the stages plus dust.untimed_ms add up to dust.search_ms.
func (r *replayed) metrics(into map[string]metric) {
	avg := func(f func(stageTimes) float64) float64 {
		xs := make([]float64, len(r.queries))
		for i, q := range r.queries {
			xs[i] = f(q)
		}
		return mean(xs)
	}
	searchMS := mean(r.search)
	var produced, kept int
	for _, q := range r.queries {
		produced += q.produced
		kept += q.kept
	}
	put := func(name, unit string, v float64) { into[name] = metric{v, unit} }
	put("search.topk_ms", "ms", avg(func(t stageTimes) float64 { return t.topk }))
	put("align.embed_columns_ms", "ms", avg(func(t stageTimes) float64 { return t.embedCols }))
	put("align.holistic_ms", "ms", avg(func(t stageTimes) float64 { return t.holistic }))
	put("align.columns", "count", avg(func(t stageTimes) float64 { return float64(t.columns) }))
	put("table.union_ms", "ms", avg(func(t stageTimes) float64 { return t.union }))
	put("table.unioned_rows", "count", avg(func(t stageTimes) float64 { return float64(t.produced) }))
	put("table.kept_frac", "ratio", float64(kept)/float64(produced))
	put("model.embed_tuples_ms", "ms", avg(func(t stageTimes) float64 { return t.embedTuples }))
	put("model.tuples", "count", avg(func(t stageTimes) float64 { return float64(t.tuples) }))
	put("diversify.select_ms", "ms", avg(func(t stageTimes) float64 { return t.selectMS }))
	put("cluster.matrix_ms", "ms", avg(func(t stageTimes) float64 { return t.matrix }))
	put("cluster.pairs", "count", avg(func(t stageTimes) float64 { return float64(t.pairs) }))
	put("dust.search_ms", "ms", searchMS)
	put("dust.untimed_ms", "ms", searchMS-avg(stageTimes.sum))
	put("dust.trace_overhead_ms", "ms", avg(func(t stageTimes) float64 { return t.total })-searchMS)
	put("dust.clone_ms", "ms", mean(r.clone))
	put("dust.add_table_ms", "ms", mean(r.addTable))
	put("dust.remove_table_ms", "ms", mean(r.removeTable))
}
