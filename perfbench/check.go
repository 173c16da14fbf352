package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dust"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/table"
	"dust/internal/vector"
)

// searchResponse mirrors serve's /search body field for field, so a
// dust.Result rendered through it reproduces the server's bytes.
type searchResponse struct {
	Epoch      uint64       `json:"epoch"`
	Cached     bool         `json:"cached"`
	Degraded   bool         `json:"degraded,omitempty"`
	K          int          `json:"k"`
	Tables     []string     `json:"tables"`
	Pool       int          `json:"pool"`
	Tuples     wire         `json:"tuples"`
	Provenance []provenance `json:"provenance"`
}

type provenance struct {
	Table string `json:"table"`
	Row   int    `json:"row"`
}

// mutationResponse mirrors serve's PUT/DELETE body.
type mutationResponse struct {
	Epoch  uint64 `json:"epoch"`
	Table  string `json:"table"`
	Tables int    `json:"tables"`
}

// render encodes res the way the server encodes a live search response.
func render(res *dust.Result, epoch uint64, cached bool) []byte {
	prov := make([]provenance, len(res.Provenance))
	for i, p := range res.Provenance {
		prov[i] = provenance{p.Table, p.Row}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(searchResponse{
		Epoch: epoch, Cached: cached, K: k,
		Tables: res.UnionableTables, Pool: res.Unioned.NumRows(),
		Tuples: toWire(res.Tuples), Provenance: prov,
	})
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// history is what the mutation responses say about the served lake: which
// table each epoch added or removed.
type history struct {
	base  *lake.Lake
	puts  map[string]*table.Table // every table the run PUT
	added map[string]uint64       // epoch whose snapshot first held the table
	gone  map[string]uint64       // epoch whose snapshot first lacked it
}

// checkMutations verifies that the successful mutations, ordered by the
// epoch they report, advance the epoch one at a time from epoch0 and each
// change the table count by one in their own direction. It fails samples
// that break the sequence and returns the history and the mutations in
// epoch order.
func checkMutations(base *lake.Lake, samples []*sample, epoch0 uint64) (*history, []*sample) {
	h := &history{base: base, puts: map[string]*table.Table{},
		added: map[string]uint64{}, gone: map[string]uint64{}}
	type applied struct {
		s *sample
		r mutationResponse
	}
	var ms []applied
	for _, s := range samples {
		if s.op.class == classSearch {
			continue
		}
		if s.op.class == classPut {
			h.puts[s.op.name] = s.op.table
		}
		if s.failure != "" {
			continue
		}
		var r mutationResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			s.fail("decode mutation response: %v", err)
			continue
		}
		if r.Table != s.op.name {
			s.fail("mutation response names %q, want %q", r.Table, s.op.name)
			continue
		}
		ms = append(ms, applied{s, r})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].r.Epoch < ms[j].r.Epoch })
	epoch, count := epoch0, base.Len()
	var order []*sample
	for _, m := range ms {
		step := 1
		if m.s.op.class == classDelete {
			step = -1
		}
		if m.r.Epoch != epoch+1 || m.r.Tables != count+step {
			m.s.fail("%s %s: epoch %d with %d tables after epoch %d with %d tables",
				m.s.op.class, m.s.op.name, m.r.Epoch, m.r.Tables, epoch, count)
		}
		epoch, count = m.r.Epoch, m.r.Tables
		m.s.epoch = epoch
		if step > 0 {
			h.added[m.s.op.name] = epoch
		} else {
			h.gone[m.s.op.name] = epoch
		}
		order = append(order, m.s)
	}
	return h, order
}

// source returns the table name held at epoch, or nil.
func (h *history) source(name string, epoch uint64) *table.Table {
	if t := h.base.Get(name); t != nil {
		return t
	}
	t := h.puts[name]
	if t == nil {
		return nil
	}
	if a, ok := h.added[name]; !ok || epoch < a {
		return nil
	}
	if g, ok := h.gone[name]; ok && epoch >= g {
		return nil
	}
	return t
}

// checkSearch decodes a successful search response into s.resp and
// verifies it against the query and the lake at the response's epoch: at
// most k tuples, the query's headers, every provenance row present, and
// every non-null cell taken from its source row.
func checkSearch(s *sample, h *history) {
	if s.failure != "" {
		return
	}
	var r searchResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		s.fail("decode search response: %v", err)
		return
	}
	q := s.op.query
	switch {
	case len(r.Tuples.Rows) > k:
		s.fail("%d tuples for k=%d", len(r.Tuples.Rows), k)
	case len(r.Provenance) != len(r.Tuples.Rows):
		s.fail("%d provenance entries for %d tuples", len(r.Provenance), len(r.Tuples.Rows))
	case !slices.Equal(r.Tuples.Headers, q.Headers()):
		s.fail("headers %q, query has %q", r.Tuples.Headers, q.Headers())
	}
	if s.failure != "" {
		return
	}
	for i, p := range r.Provenance {
		src := h.source(p.Table, r.Epoch)
		if src == nil || p.Row < 0 || p.Row >= src.NumRows() {
			s.fail("tuple %d: no row %d of table %q at epoch %d", i, p.Row, p.Table, r.Epoch)
			return
		}
		row := src.Row(p.Row)
		for _, cell := range r.Tuples.Rows[i] {
			if cell != table.Null && !slices.Contains(row, cell) {
				s.fail("tuple %d: cell %q is not in row %d of %q", i, cell, p.Row, p.Table)
				return
			}
		}
	}
	s.resp, s.epoch = &r, r.Epoch
}

// checkBytes fails every sample whose body differs from the in-process
// Pipeline.SearchContext result of p, the served state at the sample's
// epoch, at one query worker and rendered the way the server renders it.
// Samples are checked conns at a time.
func checkBytes(p *dust.Pipeline, samples []*sample, conns int) {
	qp := p.QueryBound(1)
	var wg sync.WaitGroup
	next := make(chan *sample)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				res, err := qp.SearchContext(context.Background(), s.op.query, k)
				if err != nil {
					s.fail("in-process search: %v", err)
					continue
				}
				if want := render(res, p.Epoch(), s.resp.Cached); !bytes.Equal(s.body, want) {
					s.fail("response differs from the in-process result:\n got %s\nwant %s", s.body, want)
				}
			}
		}()
	}
	for _, s := range samples {
		next <- s
	}
	close(next)
	wg.Wait()
}

// referenceEncoder is the fixed tuple encoder avg_diversity is measured
// with; it is built here, not taken from the pipeline, so the score does
// not move when the pipeline's own encoder changes.
var referenceEncoder = embed.NewRoBERTa(embed.WithAnisotropy(0.05))

// avgDiversity is the mean over the answered samples of the paper's Eq. 1
// between the query's tuples and the returned tuples.
func avgDiversity(samples []*sample) float64 {
	var sum float64
	n := 0
	for _, s := range answered(samples) {
		q := s.op.query
		eq := model.EncodeBatch(referenceEncoder, q.Headers(), toWire(q).Rows, 1)
		sel := model.EncodeBatch(referenceEncoder, s.resp.Tuples.Headers, s.resp.Tuples.Rows, 1)
		sum += diversify.AverageDiversity(eq, sel, vector.CosineDistance)
		n++
	}
	return sum / float64(n)
}

// answered returns the searches that succeeded and passed checkSearch.
func answered(samples []*sample) []*sample {
	var out []*sample
	for _, s := range samples {
		if s.resp != nil && s.failure == "" {
			out = append(out, s)
		}
	}
	return out
}

// walk replays the served history from p, the state at the first epoch,
// in epoch order. Before each mutation it hands visit the state and the
// searches the server answered at that state's epoch; mutate applies the
// mutation and returns the next state.
func walk(p *dust.Pipeline, mutations, searches []*sample,
	mutate func(p *dust.Pipeline, m *sample) (*dust.Pipeline, error),
	visit func(p *dust.Pipeline, searches []*sample)) error {
	qs := answered(searches)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].epoch < qs[j].epoch })
	step := func(below uint64) {
		n := 0
		for n < len(qs) && qs[n].epoch < below {
			n++
		}
		var at []*sample
		for _, s := range qs[:n] {
			if s.epoch == p.Epoch() {
				at = append(at, s)
			} else {
				s.fail("answered at epoch %d, which the mutation history does not reach", s.epoch)
			}
		}
		visit(p, at)
		qs = qs[n:]
	}
	for _, m := range mutations {
		step(m.epoch)
		next, err := mutate(p, m)
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", m.op.class, m.op.name, err)
		}
		p = next
	}
	step(math.MaxUint64)
	return nil
}

// apply is the plain mutate step of walk: the server's own Clone, then
// AddTable or RemoveTable.
func apply(p *dust.Pipeline, m *sample) (*dust.Pipeline, error) {
	c, err := p.Clone()
	if err != nil {
		return nil, err
	}
	if m.op.class == classPut {
		err = c.AddTable(m.op.table)
	} else {
		err = c.RemoveTable(m.op.name)
	}
	return c, err
}

// failures counts failed samples and prints the first few reasons.
func failures(samples []*sample, report func(string)) int {
	n := 0
	for _, s := range samples {
		if s.failure != "" {
			if n < 5 {
				report(fmt.Sprintf("%s %s: %s", s.op.class, s.op.name, s.failure))
			}
			n++
		}
	}
	return n
}
