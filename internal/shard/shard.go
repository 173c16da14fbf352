// Package shard partitions a data lake into N independent sub-indexes and
// serves queries by scatter-gather: a deterministic hash assigns every
// table to one shard, each shard owns its own searcher (and, in ANN mode,
// its own HNSW graph) over its own sub-lake, queries fan out across the
// shards in parallel, and the gather stage merges the shards' answers
// under the global score order. Because every shard scores with the exact
// scorer — against one corpus shared by all shards, for the
// TF-IDF-sensitive Starmie index — the merged exact-mode ranking is
// bit-identical to an unsharded scan, while the index itself becomes
// horizontally partitioned: shards build, persist, mutate, and clone
// independently, which is the substrate for spreading a lake across
// processes or machines.
//
// The query path is built so sharding adds no per-query duplicate work:
//
//   - Encode once, scatter prepared. The query's representation (Starmie
//     column embeddings, D3L signatures and profiles) is derived exactly
//     once via search.PreparedIndex and the prepared form fans out, so
//     shard count never multiplies encoding cost.
//   - Bounded gather. In exact mode each shard returns a truncated local
//     top list (k/n plus slack, never more than k) merged by a k-way heap;
//     a threshold-style bound then re-fetches only shards whose truncated
//     list could still change the global top k, so the merge stays exact
//     while the common case moves far fewer hits than k-per-shard.
//   - Candidate-only ANN. In ANN mode shards only nominate candidate names
//     from their retrieval structures; the exact re-scoring happens once,
//     globally, on the merged pool — not once per shard on oversampled
//     local pools.
//   - No per-query fixed costs. The scatter runs on one long-lived worker
//     pool owned by the shard family (see Close), not a pool built and
//     torn down per query.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/tokenize"
)

// Searcher kinds a shard set can be built from; the value is what index
// manifests record.
const (
	KindStarmie = "starmie"
	KindD3L     = "d3l"
)

// Gather-stage tuning. Both are slack on provably-sufficient bounds, so
// they trade a little extra per-shard work for fewer second rounds (exact)
// or higher first-pass recall (ANN); correctness of the exact merge never
// depends on them.
const (
	// gatherSlack widens the exact-mode first-round per-shard fetch beyond
	// the ceil(k/n) a perfectly uniform score distribution would need, so
	// mildly skewed lakes still finish in one round.
	gatherSlack = 8
	// annNominateSlack widens each shard's ANN nomination depth beyond its
	// proportional ceil(Oversample*k/n) share, so the merged candidate pool
	// keeps monolithic-grade recall even when one shard owns most of the
	// true neighbours.
	annNominateSlack = 4
)

// StageTimings accumulates per-stage wall time across sharded queries.
// Attach one with Searcher.Instrument; all fields are atomic so concurrent
// queries can share an accumulator. dustbench -shards reports these as
// encode/scatter/gather milliseconds per query.
type StageTimings struct {
	// Queries counts the TopK queries recorded.
	Queries atomic.Int64
	// EncodeNS is nanoseconds spent preparing the query representation
	// (the encode-once stage).
	EncodeNS atomic.Int64
	// ScatterNS is nanoseconds spent in per-shard fan-out work: local
	// top-k retrieval rounds in exact mode, candidate nomination in ANN
	// mode.
	ScatterNS atomic.Int64
	// GatherNS is nanoseconds spent merging: the k-way heap merge plus, in
	// ANN mode, the single global exact-scoring pass over the merged pool.
	GatherNS atomic.Int64
}

// scatterPool wraps the long-lived worker pool behind a shard family's
// query scatter. The wrapper — and thus the pool — is shared by the
// original searcher and every clone derived from it, so close must be
// idempotent: whichever family member is closed first releases the
// workers, later closes are no-ops.
type scatterPool struct {
	pool *par.Pool
	once sync.Once
}

func newScatterPool(workers int) *scatterPool {
	return &scatterPool{pool: par.NewPool(workers)}
}

func (p *scatterPool) close() { p.once.Do(p.pool.Close) }

// Typed failures of the sharding layer.
var (
	// ErrUnknownKind reports a shard-set construction for a searcher kind
	// this package does not shard.
	ErrUnknownKind = errors.New("shard: unknown searcher kind")
	// ErrLayoutMismatch reports Assemble parts that do not partition the
	// full lake exactly (a table missing, duplicated, or unknown).
	ErrLayoutMismatch = errors.New("shard: parts do not partition the lake")
)

// Assign returns the owning shard of a table name under n shards: FNV-1a of
// the name modulo n. The assignment depends only on (name, n), so every
// process sharding the same lake the same way routes a table identically —
// no coordination state to persist beyond the shard count.
func Assign(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// Partition splits l into n sub-lakes by Assign, preserving l's iteration
// order within each shard. Sub-lakes share l's table objects (which nothing
// mutates after insertion), so partitioning costs O(tables), not O(cells).
func Partition(l *lake.Lake, n int) []*lake.Lake {
	if n < 1 {
		n = 1
	}
	subs := make([]*lake.Lake, n)
	for i := range subs {
		subs[i] = lake.New(fmt.Sprintf("%s#%d", l.Name, i))
	}
	for _, t := range l.Tables() {
		subs[Assign(t.Name, n)].MustAdd(t)
	}
	return subs
}

// Config shapes shard-set construction.
type Config struct {
	// Workers bounds both the per-shard indexing/scoring parallelism and
	// the width of the query scatter; <= 0 derives the bound from
	// GOMAXPROCS and 1 forces the sequential path. Results are
	// bit-identical for every setting.
	Workers int
	// Mode selects the retrieval backend every shard starts in (default
	// search.Exact). Equivalent to SetMode right after construction.
	Mode search.Mode
	// Quantized selects SQ8 storage for the HNSW graphs the shards build
	// (search.WithQuantized per shard); graphs loaded from disk keep
	// their stored representation regardless.
	Quantized bool
}

// Searcher is a sharded table-union searcher: a search.Index backed by N
// independent per-shard indexes. It implements the Index surface by
// scattering to the shards and merging, so a dust.Pipeline (and everything
// above it: persistence, serving, snapshot swaps) treats a shard set
// exactly like a monolithic index.
type Searcher struct {
	kind     string
	full     *lake.Lake
	sublakes []*lake.Lake
	subs     []search.PreparedIndex
	// corpus is the one TF-IDF corpus shared by every Starmie shard. It
	// covers the FULL lake, so per-shard embeddings — and therefore
	// per-shard exact scores — are bit-identical to an unsharded index's;
	// without it, each shard's document frequencies would drift from the
	// global statistics and the merged ranking would diverge from the
	// unsharded one whenever a column exceeds the encoder token budget.
	// nil for corpus-insensitive kinds (D3L).
	corpus  *tokenize.Corpus
	workers int
	mode    search.Mode
	// pool runs the query scatter. It is created at construction and
	// shared with every clone and view of the family (snapshot swaps reuse
	// the same workers), so Close on any member releases it.
	pool *scatterPool
	// inline marks query-bounded views: they scatter inline via par.For
	// instead of on the pool — a bounded view caps one request's
	// parallelism, so it must neither borrow the family's full-width pool
	// nor pay for goroutine handoffs it cannot use.
	inline bool
	// timings, when non-nil, accumulates per-stage query wall time; see
	// Instrument.
	timings *StageTimings
	// Oversample sizes the ANN candidate pool for a top-k query: the
	// shards' nomination depths sum to about ceil(Oversample*k) before the
	// single global exact re-score. Exact mode ignores it — the bounded
	// gather derives its own per-shard limits, which correctness never
	// lets exceed k.
	Oversample float64
}

// NewStarmie builds a Starmie shard set over l with n shards: one global
// corpus pass over the full lake (identical document statistics to an
// unsharded build), then one Starmie index per sub-lake embedded against
// that shared corpus.
func NewStarmie(l *lake.Lake, n int, cfg Config) *Searcher {
	corpus := &tokenize.Corpus{}
	for _, t := range l.Tables() {
		for i := range t.Columns {
			corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	s := newSearcher(KindStarmie, l, n, cfg)
	s.corpus = corpus
	for i, sl := range s.sublakes {
		s.subs[i] = search.NewStarmie(sl,
			search.WithWorkers(cfg.Workers), search.WithSharedCorpus(corpus),
			search.WithQuantized(cfg.Quantized))
	}
	s.finish(cfg)
	return s
}

// NewD3L builds a D3L shard set over l with n shards. D3L's five signals
// are all per-column (no cross-table statistics), so shards need no shared
// state and per-shard scores equal the unsharded ones by construction.
func NewD3L(l *lake.Lake, n int, cfg Config) *Searcher {
	s := newSearcher(KindD3L, l, n, cfg)
	for i, sl := range s.sublakes {
		s.subs[i] = search.NewD3L(sl, search.WithWorkers(cfg.Workers))
	}
	s.finish(cfg)
	return s
}

// newSearcher allocates the shard frame: partitioned sub-lakes and empty
// searcher slots for the kind-specific constructors to fill.
func newSearcher(kind string, l *lake.Lake, n int, cfg Config) *Searcher {
	if n < 1 {
		n = 1
	}
	return &Searcher{
		kind:       kind,
		full:       l,
		sublakes:   Partition(l, n),
		subs:       make([]search.PreparedIndex, n),
		workers:    cfg.Workers,
		pool:       newScatterPool(cfg.Workers),
		Oversample: search.DefaultOversample,
	}
}

// finish applies the construction-time retrieval mode once every shard
// index exists.
func (s *Searcher) finish(cfg Config) {
	if cfg.Mode != search.Exact {
		// The modes Config can express never fail SetMode; a bogus numeric
		// Mode falls back to the exact scan, mirroring search.WithMode.
		_ = s.SetMode(cfg.Mode)
	}
}

// Part pairs one shard's sub-lake with its loaded searcher; Assemble
// reconstitutes a shard set from them on the warm-start path.
type Part struct {
	Lake     *lake.Lake
	Searcher search.Searcher
}

// Assemble reconstitutes a sharded searcher from independently loaded
// parts — the warm-start dual of NewStarmie/NewD3L. The parts must
// partition full exactly (every lake table in exactly one part) and each
// part's searcher must match kind; violations return ErrLayoutMismatch or
// ErrUnknownKind. For Starmie, every shard is rebound to part 0's restored
// corpus so the set again shares one global TF-IDF state (each saved shard
// recorded the identical full-lake corpus, so any part's restore works).
func Assemble(full *lake.Lake, kind string, parts []Part, cfg Config) (*Searcher, error) {
	if kind != KindStarmie && kind != KindD3L {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no parts", ErrLayoutMismatch)
	}
	s := &Searcher{
		kind:       kind,
		full:       full,
		sublakes:   make([]*lake.Lake, len(parts)),
		subs:       make([]search.PreparedIndex, len(parts)),
		workers:    cfg.Workers,
		Oversample: search.DefaultOversample,
	}
	seen := 0
	for i, p := range parts {
		for _, name := range p.Lake.Names() {
			t := full.Get(name)
			if t == nil || t != p.Lake.Get(name) {
				return nil, fmt.Errorf("%w: shard %d holds %q, the lake does not", ErrLayoutMismatch, i, name)
			}
			seen++
		}
		var sub search.PreparedIndex
		switch ps := p.Searcher.(type) {
		case *search.Starmie:
			if kind == KindStarmie {
				sub = ps
			}
		case *search.D3L:
			if kind == KindD3L {
				sub = ps
			}
		}
		if sub == nil {
			return nil, fmt.Errorf("%w: shard %d is %T, want %s", ErrLayoutMismatch, i, p.Searcher, kind)
		}
		s.sublakes[i], s.subs[i] = p.Lake, sub
	}
	// Every part table exists in the lake and sub-lakes cannot hold
	// duplicates internally, so seen == full.Len() iff the parts cover the
	// lake exactly once (a cross-part duplicate would overshoot only if
	// another table were missing — both are layout corruption).
	if seen != full.Len() {
		return nil, fmt.Errorf("%w: parts hold %d tables, lake holds %d", ErrLayoutMismatch, seen, full.Len())
	}
	dup := make(map[string]bool, full.Len())
	for _, sl := range s.sublakes {
		for _, name := range sl.Names() {
			if dup[name] {
				return nil, fmt.Errorf("%w: table %q in two shards", ErrLayoutMismatch, name)
			}
			dup[name] = true
		}
	}
	if kind == KindStarmie {
		s.corpus = s.subs[0].(*search.Starmie).Corpus()
		for _, sub := range s.subs {
			sub.(*search.Starmie).AdoptSharedCorpus(s.corpus)
		}
	}
	// The pool starts only once the layout is validated, so a rejected
	// Assemble leaks no worker goroutines.
	s.pool = newScatterPool(cfg.Workers)
	// The shards' retrieval mode is uniform by construction; trust shard 0.
	s.mode = s.subs[0].RetrievalMode()
	return s, nil
}

// NumShards returns the shard count.
func (s *Searcher) NumShards() int { return len(s.subs) }

// Kind names the per-shard searcher family (KindStarmie or KindD3L), the
// value index manifests record.
func (s *Searcher) Kind() string { return s.kind }

// Shard exposes shard i's searcher; the persistence layer saves each shard
// through it.
func (s *Searcher) Shard(i int) search.PreparedIndex { return s.subs[i] }

// ShardTables returns every shard's table names in sub-lake iteration
// order — the shard map an index manifest records and a warm start rebuilds
// the partition from.
func (s *Searcher) ShardTables() [][]string {
	out := make([][]string, len(s.sublakes))
	for i, sl := range s.sublakes {
		out[i] = sl.Names()
	}
	return out
}

// SaveShard writes shard i's index through its kind's codec.
func (s *Searcher) SaveShard(i int, w io.Writer) error {
	switch sub := s.subs[i].(type) {
	case *search.Starmie:
		return sub.Save(w)
	case *search.D3L:
		return sub.Save(w)
	}
	return fmt.Errorf("%w: shard %d is %T", ErrUnknownKind, i, s.subs[i])
}

// Name implements search.Searcher. The shard count and the sub-searcher
// name (which carries the +ann suffix in ANN mode) both shape rankings, so
// both belong in the name — config tags, and the serving caches keyed by
// them, stay distinct across layouts and modes.
func (s *Searcher) Name() string {
	return fmt.Sprintf("sharded%d(%s)", len(s.subs), s.subs[0].Name())
}

// TopK implements search.Searcher.
func (s *Searcher) TopK(query *table.Table, k int) []search.Scored {
	out, _ := s.TopKContext(context.Background(), query, k)
	return out
}

// TopKContext implements search.Index as prepared scatter-gather: the
// query representation is derived exactly once (search.PreparedIndex)
// and fans out across every shard on the family's long-lived pool; the
// gather merges the shards' exactly-scored answers under the global (score
// desc, name asc) order — the same total order the unsharded scorer
// applies, which with the shared corpus makes the exact-mode merge
// bit-identical to an unsharded scan. Exact mode runs the bounded gather
// (per-shard limits near k/n, a threshold-style second round only for
// shards that might still matter); ANN mode runs the candidate-only plan
// (shards nominate, one global exact re-score). k <= 0 asks for the full
// ranking. Cancelling ctx abandons the remaining shards and returns
// ctx.Err().
func (s *Searcher) TopKContext(ctx context.Context, query *table.Table, k int) ([]search.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The coordinator owns the per-request trace: encode maps to the
	// encode-once stage, scatter to retrieve, gather to score. Sub-searcher
	// calls get a masked context so the shards' own stage recording does not
	// double-count the same wall time.
	tr := search.TraceFrom(ctx)
	if tr != nil {
		ctx = search.WithTrace(ctx, nil)
	}
	t0 := time.Now()
	pq := s.subs[0].Prepare(query)
	encodeNS := time.Since(t0).Nanoseconds()
	if tr != nil {
		tr.EncodeNS.Add(encodeNS)
	}

	var hits []search.Scored
	var err error
	if s.mode == search.ANN && k > 0 {
		hits, err = s.topKANN(ctx, pq, k, tr)
	} else {
		hits, err = s.topKExact(ctx, pq, k, tr)
	}
	if s.timings != nil && err == nil {
		s.timings.Queries.Add(1)
		s.timings.EncodeNS.Add(encodeNS)
	}
	return hits, err
}

// runScatter runs fn(i) for i in [0, n) across the shard family's
// long-lived pool, or inline via par.For on query-bounded views (the
// serving path, where per-request goroutine spin-up is exactly the
// fixed cost this layer removes). Shards are handed to the pool in
// min(workers, n) contiguous chunks rather than one task per shard: extra
// tasks beyond the worker count cannot add parallelism, but each one costs
// an unbuffered-channel handoff (two context switches on a busy pool).
// Pool tasks from concurrent queries share the worker bound but never
// wait on each other (par.Pool.Run).
func (s *Searcher) runScatter(n int, fn func(i int)) {
	if s.inline {
		par.For(s.workers, n, fn)
		return
	}
	chunks := par.Normalize(s.workers)
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	tasks := make([]func(), 0, chunks)
	for lo := 0; lo < n; lo += size {
		lo, hi := lo, lo+size
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}
	s.pool.pool.Run(tasks...)
}

// topKExact is the bounded gather. Round one asks every shard for its local
// top limit = min(k, ceil(k/n)+gatherSlack) (exact mode with several
// shards; otherwise limit = k). The merged top k is final for every shard
// whose list was exhausted (shorter than limit) or whose last returned hit
// ranks at or below the merged k-th — any unseen hit on such a shard ranks
// strictly after that last hit, so it cannot displace the current top k.
// Only the remaining "open" shards are re-fetched, at limit k, which closes
// them for good: a shard that returned k hits cannot hold an unseen hit in
// the global top k (its k seen hits would all have to rank above it,
// overfilling the top k). One second round therefore always suffices, and
// the result is bit-identical to an unsharded scan. k <= 0 requests the
// full ranking from every shard in one round.
func (s *Searcher) topKExact(ctx context.Context, pq search.PreparedQuery, k int, tr *search.Trace) ([]search.Scored, error) {
	n := len(s.subs)
	limit := k
	if k > 0 {
		if s.mode == search.Exact && n > 1 {
			if l := (k+n-1)/n + gatherSlack; l < k {
				limit = l
			}
		} else if s.mode != search.Exact {
			// ANN mode lands here only as topKANN's empty-pool fallback:
			// per-shard candidate pools are approximate, so the threshold
			// bound does not apply; keep the oversampled single round.
			limit = int(math.Ceil(s.Oversample * float64(k)))
		}
	}
	tScatter := time.Now()
	hits := make([][]search.Scored, n)
	errs := make([]error, n)
	s.runScatter(n, func(i int) {
		hits[i], errs[i] = s.subs[i].TopKPrepared(ctx, pq, limit)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	scatterNS := time.Since(tScatter).Nanoseconds()

	tGather := time.Now()
	merged := mergeHits(hits, k)
	gatherNS := time.Since(tGather).Nanoseconds()

	if k > 0 && limit < k {
		var open []int
		for i, h := range hits {
			if len(h) == limit && (len(merged) < k || hitLess(h[len(h)-1], merged[len(merged)-1])) {
				open = append(open, i)
			}
		}
		if len(open) > 0 {
			t2 := time.Now()
			more := make([][]search.Scored, len(open))
			errs2 := make([]error, len(open))
			s.runScatter(len(open), func(i int) {
				more[i], errs2[i] = s.subs[open[i]].TopKPrepared(ctx, pq, k)
			})
			if err := errors.Join(errs2...); err != nil {
				return nil, err
			}
			scatterNS += time.Since(t2).Nanoseconds()
			t3 := time.Now()
			for i, o := range open {
				hits[o] = more[i]
			}
			merged = mergeHits(hits, k)
			gatherNS += time.Since(t3).Nanoseconds()
		}
	}
	if s.timings != nil {
		s.timings.ScatterNS.Add(scatterNS)
		s.timings.GatherNS.Add(gatherNS)
	}
	if tr != nil {
		tr.RetrieveNS.Add(scatterNS)
		tr.ScoreNS.Add(gatherNS)
	}
	return merged, nil
}

// topKANN is the candidate-only ANN plan: every shard nominates its local
// candidates at depth ceil(Oversample*k/n)+annNominateSlack from its own
// retrieval structure, and the single exact-scoring pass runs globally on
// the merged pool — each candidate scored once by its owning shard's
// scorer (the owner holds the candidate's indexed state). An empty global
// pool (e.g. D3L's LSH finding no value overlap anywhere) falls back to
// the exact path, mirroring the monolithic searchers' own fallback. The
// final ranking sorts by the same (score desc, name asc) total order as
// everywhere else, so results are deterministic for every worker count.
func (s *Searcher) topKANN(ctx context.Context, pq search.PreparedQuery, k int, tr *search.Trace) ([]search.Scored, error) {
	n := len(s.subs)
	depth := int(math.Ceil(s.Oversample*float64(k)/float64(n))) + annNominateSlack

	tScatter := time.Now()
	nameLists := make([][]string, n)
	errs := make([]error, n)
	s.runScatter(n, func(i int) {
		nameLists[i], errs[i] = s.subs[i].NominatePrepared(ctx, pq, depth)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scatterNS := time.Since(tScatter).Nanoseconds()
	if s.timings != nil {
		s.timings.ScatterNS.Add(scatterNS)
	}
	if tr != nil {
		tr.RetrieveNS.Add(scatterNS)
	}

	tGather := time.Now()
	type cand struct {
		t     *table.Table
		owner int
	}
	var pool []cand
	for i, names := range nameLists {
		for _, name := range names {
			// Shards partition the lake, so cross-shard duplicates cannot
			// occur; a nominee unknown to its own sub-lake would be an
			// index bug and is simply skipped.
			if t := s.sublakes[i].Get(name); t != nil {
				pool = append(pool, cand{t, i})
			}
		}
	}
	if len(pool) == 0 {
		return s.topKExact(ctx, pq, k, tr)
	}
	scored := make([]search.Scored, len(pool))
	if err := par.ForCtx(ctx, s.workers, len(pool), func(i int) {
		scored[i] = search.Scored{
			Table: pool[i].t,
			Score: s.subs[pool[i].owner].ScorePrepared(pq, pool[i].t),
		}
	}); err != nil {
		return nil, err
	}
	sort.Slice(scored, func(i, j int) bool { return hitLess(scored[i], scored[j]) })
	if len(scored) > k {
		scored = scored[:k]
	}
	gatherNS := time.Since(tGather).Nanoseconds()
	if s.timings != nil {
		s.timings.GatherNS.Add(gatherNS)
	}
	if tr != nil {
		tr.ScoreNS.Add(gatherNS)
	}
	return scored, nil
}

// hitLess is the global ranking order: score descending, table name
// ascending. Table names are unique lake-wide, so the order is total and
// every merge deterministic for every worker and shard count.
func hitLess(a, b search.Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Table.Name < b.Table.Name
}

// mergeHits is the gather stage: a k-way heap merge of the shards' local
// rankings (each already sorted by hitLess) that stops after emitting k
// hits. Unlike concatenate-and-sort it does O(k log n) comparisons and one
// right-sized allocation instead of O(T log T) over the full union — the
// merge cost no longer grows with the per-shard list lengths beyond the
// hits actually consumed. k <= 0 merges everything.
func mergeHits(hits [][]search.Scored, k int) []search.Scored {
	total := 0
	heads := make([][]search.Scored, 0, len(hits))
	for _, h := range hits {
		if len(h) > 0 {
			heads = append(heads, h)
			total += len(h)
		}
	}
	if len(heads) == 0 {
		return nil
	}
	if len(heads) == 1 {
		out := heads[0]
		if k > 0 && len(out) > k {
			out = out[:k]
		}
		return out
	}
	want := total
	if k > 0 && k < want {
		want = k
	}
	// A tiny hand-rolled binary min-heap over list heads; container/heap
	// would box every cursor through an interface on each fix-up.
	less := func(a, b []search.Scored) bool { return hitLess(a[0], b[0]) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(heads) && less(heads[l], heads[best]) {
				best = l
			}
			if r < len(heads) && less(heads[r], heads[best]) {
				best = r
			}
			if best == i {
				return
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]search.Scored, 0, want)
	for len(out) < want {
		out = append(out, heads[0][0])
		if rest := heads[0][1:]; len(rest) > 0 {
			heads[0] = rest
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			if len(heads) == 1 {
				// One list left: it is already sorted — bulk-append the
				// remainder without heap traffic.
				need := want - len(out)
				if need > len(heads[0]) {
					need = len(heads[0])
				}
				out = append(out, heads[0][:need]...)
				break
			}
			if len(heads) == 0 {
				break
			}
		}
		siftDown(0)
	}
	return out
}

// SetMode implements search.Index by fanning the mode to every shard:
// entering ANN builds one HNSW graph per Starmie shard (or is a no-op for
// shards that already carry one, e.g. after a warm start).
func (s *Searcher) SetMode(m search.Mode) error {
	if m != search.Exact && m != search.ANN {
		return fmt.Errorf("shard: SetMode(%d): %w", int(m), search.ErrUnknownMode)
	}
	for _, sub := range s.subs {
		if err := sub.SetMode(m); err != nil {
			return err
		}
	}
	s.mode = m
	return nil
}

// RetrievalMode implements search.Index.
func (s *Searcher) RetrievalMode() search.Mode { return s.mode }

// owner returns the index of the shard holding name, or -1. Removals route
// by membership rather than re-deriving Assign so a layout loaded from a
// manifest keeps working even if the assignment policy evolves.
func (s *Searcher) owner(name string) int {
	for i, sl := range s.sublakes {
		if sl.Get(name) != nil {
			return i
		}
	}
	return -1
}

// AddTable implements search.Index: the table routes to its
// hash-assigned shard, whose index absorbs it as a delta update. For
// Starmie the shared corpus gains the table's column documents first —
// exactly when an unsharded AddTable would — and every OTHER shard then
// refreshes its corpus-sensitive embeddings, so all shards keep scoring
// against the same global statistics a from-scratch unsharded index over
// the grown lake would hold.
func (s *Searcher) AddTable(t *table.Table) error {
	if s.owner(t.Name) >= 0 {
		return fmt.Errorf("shard: AddTable(%q): %w", t.Name, search.ErrDuplicateTable)
	}
	o := Assign(t.Name, len(s.subs))
	if err := s.sublakes[o].Add(t); err != nil {
		return err
	}
	if s.corpus != nil {
		for i := range t.Columns {
			s.corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	if err := s.subs[o].AddTable(t); err != nil {
		// Roll the shared state back so a refused table leaves no trace.
		if s.corpus != nil {
			for i := range t.Columns {
				s.corpus.RemoveDocument(embed.ColumnTokens(&t.Columns[i]))
			}
		}
		_ = s.sublakes[o].Remove(t.Name)
		return err
	}
	s.refreshOthers(o)
	return nil
}

// RemoveTable implements search.Index, routing to the owning shard
// and (for Starmie) retiring the table's documents from the shared corpus
// before the shard un-indexes, so the owner's own refresh already sees the
// post-removal statistics; the remaining shards refresh afterwards.
func (s *Searcher) RemoveTable(name string) error {
	o := s.owner(name)
	if o < 0 {
		return fmt.Errorf("shard: RemoveTable(%q): %w", name, search.ErrUnknownTable)
	}
	t := s.sublakes[o].Get(name)
	if s.corpus != nil {
		for i := range t.Columns {
			s.corpus.RemoveDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	if err := s.subs[o].RemoveTable(name); err != nil {
		if s.corpus != nil {
			for i := range t.Columns {
				s.corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
			}
		}
		return err
	}
	_ = s.sublakes[o].Remove(name)
	s.refreshOthers(o)
	return nil
}

// refreshOthers re-embeds corpus-sensitive tables on every shard except
// the one that just mutated (its own AddTable/RemoveTable already
// refreshed). Only Starmie shards carry corpus-sensitive state.
func (s *Searcher) refreshOthers(mutated int) {
	if s.corpus == nil {
		return
	}
	for i, sub := range s.subs {
		if i == mutated {
			continue
		}
		sub.(*search.Starmie).RefreshBig()
	}
}

// QueryWorkers implements search.Index: the returned searcher shares
// every shard's immutable index and bounds both the scatter width and each
// shard's scoring to n workers. The view scatters inline (par.For; fully
// sequential at n = 1) but keeps the family pool reachable, so closing the
// view — a pipeline re-bounded by dust.WithWorkers holds only the view —
// still releases the pool's workers.
func (s *Searcher) QueryWorkers(n int) search.Index {
	c := *s
	c.workers = n
	c.inline = true
	c.subs = make([]search.PreparedIndex, len(s.subs))
	for i, sub := range s.subs {
		c.subs[i] = sub.QueryWorkers(n).(search.PreparedIndex)
	}
	return &c
}

// Instrument attaches a per-stage timing accumulator to this searcher (nil
// detaches). Views and clones created before the call keep their previous
// accumulator. Not synchronized with in-flight queries — attach before
// querying starts.
func (s *Searcher) Instrument(st *StageTimings) { s.timings = st }

// SetQuantized implements search.Index by fanning the graph storage mode
// to every shard (see search.Starmie.SetQuantized): shards already carrying
// a graph of a different storage rebuild it from their stored embeddings.
// Shards whose searcher kind has no quantized form (D3L) are unaffected.
func (s *Searcher) SetQuantized(on bool) {
	for _, sub := range s.subs {
		sub.SetQuantized(on)
	}
}

// SetOversample implements search.Index: it sizes this set's merged ANN
// candidate pool and fans the factor to the shards (whose own Oversample
// only matters on their local fallback paths). v <= 0 restores the
// default.
func (s *Searcher) SetOversample(v float64) {
	if v <= 0 {
		v = search.DefaultOversample
	}
	s.Oversample = v
	for _, sub := range s.subs {
		sub.SetOversample(v)
	}
}

// SetEfSearch implements search.Index by fanning the beam width to every
// shard's own graph traversal. ef <= 0 restores the default.
func (s *Searcher) SetEfSearch(ef int) {
	for _, sub := range s.subs {
		sub.SetEfSearch(ef)
	}
}

// IndexBytes implements search.Index as the sum over the shards.
// Storage is uniform across shards by construction; a hand-assembled set
// that disagrees reports "mixed".
func (s *Searcher) IndexBytes() (string, int64) {
	storage, total := "none", int64(0)
	for _, sub := range s.subs {
		st, b := sub.IndexBytes()
		total += b
		switch {
		case st == "none":
		case storage == "none":
			storage = st
		case storage != st:
			storage = "mixed"
		}
	}
	return storage, total
}

// ShardIndexBytes returns every shard's own storage mode and resident
// index bytes in shard order — the per-shard series behind the serving
// layer's dust_index_bytes gauge. Shards without an ANN index report
// ("none", 0).
func (s *Searcher) ShardIndexBytes() []search.IndexFootprint {
	out := make([]search.IndexFootprint, len(s.subs))
	for i, sub := range s.subs {
		out[i].Storage, out[i].Bytes = sub.IndexBytes()
	}
	return out
}

// ShardMaintenanceStats returns every shard's own tombstone debt, indexed
// by shard — the per-shard view a maintainer (or an operator dashboard)
// drills into when the merged MaintenanceStats trips a threshold.
func (s *Searcher) ShardMaintenanceStats() []search.MaintenanceStats {
	out := make([]search.MaintenanceStats, len(s.subs))
	for i, sub := range s.subs {
		out[i] = sub.MaintenanceStats()
	}
	return out
}

// MaintenanceStats implements search.Index as the merged per-shard
// view: counts sum across shards, dead fractions take the per-shard
// maximum (one rotten shard should trip the maintainer even if the rest
// of the lake is clean).
func (s *Searcher) MaintenanceStats() search.MaintenanceStats {
	var agg search.MaintenanceStats
	for _, st := range s.ShardMaintenanceStats() {
		agg = agg.Merge(st)
	}
	return agg
}

// SetAutoCompact implements search.Index by fanning the policy to every
// shard.
func (s *Searcher) SetAutoCompact(on bool) {
	for _, sub := range s.subs {
		sub.SetAutoCompact(on)
	}
}

// Compact implements search.Index: every shard compacts its own
// tombstoned structures (in parallel on the family pool — compaction runs
// on clones, off the query path, so the pool is otherwise idle for this
// searcher). Reports whether any shard did work.
func (s *Searcher) Compact() bool {
	did := make([]bool, len(s.subs))
	s.runScatter(len(s.subs), func(i int) { did[i] = s.subs[i].Compact() })
	return slices.Contains(did, true)
}

// ModeView implements search.Index: a shallow copy of the shard set
// whose sub-searchers are themselves mode views, sharing all index state
// (graphs included) with the originals. The view keeps the family pool —
// it serves queries exactly like the original — and is unavailable unless
// every shard can produce the requested view.
func (s *Searcher) ModeView(m search.Mode) (search.Index, bool) {
	if m == s.mode {
		return s, true
	}
	c := *s
	c.mode = m
	c.subs = make([]search.PreparedIndex, len(s.subs))
	for i, sub := range s.subs {
		v, ok := sub.ModeView(m)
		if !ok {
			return nil, false
		}
		c.subs[i] = v.(search.PreparedIndex)
	}
	return &c, true
}

// Close releases the scatter pool's worker goroutines. The pool is shared
// by every clone and view in the searcher's family, so call Close once the whole
// family is done serving — dust.Pipeline.Close does this at pipeline
// teardown — not per snapshot clone. Close is idempotent across the
// family; queries on any family member after Close panic.
func (s *Searcher) Close() {
	s.pool.close()
}

// CloneWithLake implements search.Index for snapshot-swapped serving: l
// must be a clone of the full lake holding the same table set. Every shard
// clones against a clone of its own sub-lake (heavy embedding state stays
// shared, per the sub-searchers' Clone contracts), and the Starmie shards
// are rebound to a single clone of the shared corpus so the new shard set
// again owns exactly one global TF-IDF state. The clone keeps the family's
// scatter pool — snapshot swaps must not churn worker goroutines — so
// Close applies family-wide (see Close).
func (s *Searcher) CloneWithLake(l *lake.Lake) search.Index {
	c := *s
	c.full = l
	c.sublakes = make([]*lake.Lake, len(s.sublakes))
	c.subs = make([]search.PreparedIndex, len(s.subs))
	if s.corpus != nil {
		c.corpus = s.corpus.Clone()
	}
	for i, sub := range s.subs {
		c.sublakes[i] = s.sublakes[i].Clone()
		c.subs[i] = sub.CloneWithLake(c.sublakes[i]).(search.PreparedIndex)
		if st, ok := c.subs[i].(*search.Starmie); ok {
			st.AdoptSharedCorpus(c.corpus)
		}
	}
	return &c
}
