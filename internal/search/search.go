// Package search implements the table-union-search substrate DUST builds
// on (paper Algorithm 1, line 3) and the two search baselines of the
// evaluation: a Starmie-like searcher (contextualized column embeddings +
// maximum-weight bipartite matching, §6.2.3/§6.5.1) and a D3L-like searcher
// (aggregation of name / value-overlap / format / embedding / distribution
// signals, §6.5.1). It also provides the tuple-level adaptation of Starmie
// used as a Table 3 baseline, and the MAP metric (§6.5.2).
package search

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dust/internal/ann"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/table"
	"dust/internal/tokenize"
)

// Scored is a search hit: a lake table and its unionability score.
type Scored struct {
	Table *table.Table
	Score float64
}

// Searcher retrieves the top-k tables unionable with a query.
type Searcher interface {
	Name() string
	TopK(query *table.Table, k int) []Scored
}

// Mode selects the candidate-generation backend of an Index's query plan
// (retrieve -> score -> diversify).
type Mode int

const (
	// Exact scans and scores every lake table — the seed behavior, the
	// default, and the recall oracle ANN mode is measured against.
	Exact Mode = iota
	// ANN generates candidates approximately — HNSW over the embedding
	// index for Starmie and the tuple-level searcher, the LSH banding
	// index for D3L — and re-scores only those candidates exactly, so
	// query latency tracks the candidate pool instead of the lake size.
	ANN
)

// String names the mode the way the CLI -ann flags and searcher Name()
// suffixes do.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case ANN:
		return "ann"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Staged retrieval defaults, shared by every ANN-capable searcher here.
const (
	// DefaultOversample is the candidate multiplier of the ANN stage:
	// stage one retrieves about Oversample*k candidates per query vector
	// before the exact re-rank, trading extra exact scoring for recall.
	DefaultOversample = 4.0
	// DefaultEfSearch bounds the HNSW base-layer beam width.
	DefaultEfSearch = 120
	// rebuildThreshold is the tombstone fraction past which a mutated
	// HNSW graph is rebuilt from its live nodes instead of accumulating
	// more dead weight.
	rebuildThreshold = 0.5
)

// ErrUnknownMode reports SetMode of a Mode this package does not define.
var ErrUnknownMode = errors.New("search: unknown retrieval mode")

// staleGraph reports whether a mutated HNSW graph has crossed the
// rebuild threshold — the one compaction policy both ANN-capable
// searchers apply (the size floor keeps tiny, churn-heavy indexes from
// rebuilding on every other mutation).
func staleGraph(ix *ann.Index) bool {
	return ix != nil && ix.Len() >= 8 && ix.DeletedFraction() > rebuildThreshold
}

// Typed failures of the incremental-mutation and persistence surfaces.
var (
	// ErrDuplicateTable reports AddTable of a name the index already holds.
	ErrDuplicateTable = errors.New("search: table already indexed")
	// ErrUnknownTable reports RemoveTable of a name the index never saw.
	ErrUnknownTable = errors.New("search: table not indexed")
	// ErrLakeMismatch reports a saved index whose table set does not match
	// the lake it is being loaded against.
	ErrLakeMismatch = errors.New("search: saved index does not match the lake")
	// ErrEncoderMismatch reports a saved index built with a different
	// encoder configuration than the loading searcher.
	ErrEncoderMismatch = errors.New("search: saved index built with a different encoder")
)

// Incremental is an index that supports delta updates: AddTable indexes one
// new table and RemoveTable un-indexes one, in O(delta) work rather than a
// full rebuild, while keeping query results bit-identical to an index built
// from scratch over the mutated table set. All three searchers in this
// package implement it.
//
// Contract for the lake-backed searchers (Starmie, D3L): the searcher and
// its lake must agree whenever a query runs. Call lake.Add before (or right
// after) AddTable; call RemoveTable while the table is still in the lake,
// then lake.Remove. dust.Pipeline.AddTable/RemoveTable sequence both sides
// correctly. Mutations are not safe concurrently with queries.
type Incremental interface {
	AddTable(t *table.Table) error
	RemoveTable(name string) error
}

// Index is the searcher surface the pipeline, its persistence and serving
// layers, and the sharding layer compose against: Starmie, D3L, and
// shard.Searcher implement it. Beyond the Searcher and Incremental basics
// it covers cancellation, the retrieval-mode switch of the staged query
// plan, query-bounded views, copy-on-write clones, maintenance hooks, and
// ANN tuning. Methods that do not apply to an implementation (D3L has no
// HNSW graph to tune or quantize) are documented no-ops.
type Index interface {
	Searcher
	Incremental
	// TopKContext is TopK with a cancellation path: once ctx is cancelled
	// it abandons the ranking and returns ctx.Err() instead of a truncated
	// (and therefore wrong) ranking. TopK is TopKContext under a
	// background context.
	TopKContext(ctx context.Context, query *table.Table, k int) ([]Scored, error)
	// SetMode switches the retrieval backend; entering ANN builds the
	// approximate index on first use (O(n log n) for HNSW) and is a no-op
	// when one is already installed (e.g. loaded from disk). A Mode this
	// package does not define reports ErrUnknownMode.
	SetMode(Mode) error
	// RetrievalMode reports the active retrieval backend.
	RetrievalMode() Mode
	// ModeView returns a cheap read-only view under retrieval mode m that
	// shares all index state with the receiver; a serving layer uses it to
	// degrade single requests to ANN retrieval without flipping the shared
	// index. The view must not be mutated; concurrent queries on view and
	// original are safe. ok is false when m's backend is not installed
	// (e.g. an ANN view of a graph-less Starmie).
	ModeView(m Mode) (v Index, ok bool)
	// QueryWorkers returns a view sharing the same index that scores
	// queries with at most n workers. Batch-serving callers use it to stop
	// per-query fan-out from multiplying their own query-level parallelism.
	QueryWorkers(n int) Index
	// CloneWithLake returns an independently mutable copy bound to l, a
	// clone of the receiver's lake: mutations on the clone never disturb
	// the original, while the heavy immutable state (embedding vectors,
	// signatures) is shared. Snapshot-swapped serving builds its
	// copy-on-write shadows with it.
	CloneWithLake(l *lake.Lake) Index
	// MaintenanceStats exposes the tombstone debt of the mutable index
	// structures, the signal a background maintainer watches.
	MaintenanceStats() MaintenanceStats
	// SetAutoCompact(false) stops mutations from rebuilding tombstoned
	// structures inline, handing compaction to a maintainer.
	SetAutoCompact(on bool)
	// Compact rebuilds tombstoned structures now and reports whether any
	// work was done. It preserves result identity and is not safe
	// concurrently with queries or mutations.
	Compact() bool
	// IndexBytes returns the candidate index's storage kind —
	// "quantized", "float", or "none" when no graph is installed — and its
	// estimated resident bytes (the dust_index_bytes gauge).
	IndexBytes() (storage string, bytes int64)
	// SetOversample sizes the ANN candidate pool of a top-k query
	// (ceil(v*k) nominees before exact re-ranking); v <= 0 restores
	// DefaultOversample. Exact-mode queries ignore it.
	SetOversample(v float64)
	// SetEfSearch sets the HNSW traversal beam width; ef <= 0 restores
	// DefaultEfSearch.
	SetEfSearch(ef int)
	// SetQuantized selects SQ8 storage for graphs the index builds (the
	// post-construction form of WithQuantized).
	SetQuantized(on bool)
}

// TopKCtx runs a search under ctx: an Index gets real mid-query
// cancellation, a plain Searcher is checked before the (uninterruptible)
// call. The error is ctx.Err() when the query was cancelled.
func TopKCtx(ctx context.Context, s Searcher, query *table.Table, k int) ([]Scored, error) {
	if ix, ok := s.(Index); ok {
		return ix.TopKContext(ctx, query, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.TopK(query, k), nil
}

// Trace accumulates the per-stage wall time of one query through the
// staged plan: encode (query representation + tuple embedding), retrieve
// (candidate generation), score (exact ranking of the candidates), and
// diversify (filled by the dust pipeline). Fields are atomic so a sharded
// scatter can record from concurrent goroutines; a Trace travels with the
// request via WithTrace, and searchers that find one in their context add
// their stage costs to it. Serving layers turn the totals into latency
// histograms and per-request log fields.
type Trace struct {
	// EncodeNS is nanoseconds spent deriving representations: the query's
	// prepared form here, plus tuple embedding in the dust pipeline.
	EncodeNS atomic.Int64
	// RetrieveNS is nanoseconds spent generating candidates (the exact
	// scan's table listing, ANN lookups, or the sharded scatter).
	RetrieveNS atomic.Int64
	// ScoreNS is nanoseconds spent exactly scoring and ranking candidates
	// (the sharded gather's merge and global re-score included).
	ScoreNS atomic.Int64
	// DiversifyNS is nanoseconds spent in the diversification stage; the
	// search layer never writes it, the dust pipeline does.
	DiversifyNS atomic.Int64
}

// AddEncode adds the wall time since start to the encode stage. A nil
// Trace is a no-op, as for all the Add helpers, so untraced queries cost
// call sites nothing but the time.Now.
func (tr *Trace) AddEncode(start time.Time) {
	if tr != nil {
		tr.EncodeNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddRetrieve adds the wall time since start to the retrieve stage.
func (tr *Trace) AddRetrieve(start time.Time) {
	if tr != nil {
		tr.RetrieveNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddScore adds the wall time since start to the score stage.
func (tr *Trace) AddScore(start time.Time) {
	if tr != nil {
		tr.ScoreNS.Add(time.Since(start).Nanoseconds())
	}
}

// AddDiversify adds the wall time since start to the diversify stage.
func (tr *Trace) AddDiversify(start time.Time) {
	if tr != nil {
		tr.DiversifyNS.Add(time.Since(start).Nanoseconds())
	}
}

// traceKey keys a *Trace in a context.
type traceKey struct{}

// WithTrace returns a context carrying tr: staged searchers below the call
// record their per-stage wall time into it. Passing nil masks any outer
// trace — the sharded coordinator uses that so its sub-searchers do not
// double-count stages the coordinator itself reports.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the Trace carried by ctx, or nil when the query is
// untraced.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// PreparedQuery is a query's encoded representation — column embeddings,
// MinHash signatures, signal profiles — computed once by Prepare and
// reusable across many TopKPrepared calls. A prepared query is only
// meaningful to searchers sharing the encoder state of the one that
// prepared it: identically configured encoders over the same (shared)
// corpus, which is exactly what the shards of one partitioned lake hold.
// Implementations type-assert the concrete preparation and report
// ErrForeignPrepared for one produced by a different searcher family.
type PreparedQuery interface {
	// Query returns the query table the preparation encodes.
	Query() *table.Table
}

// ErrForeignPrepared reports a PreparedQuery handed to a searcher family
// that did not produce it.
var ErrForeignPrepared = errors.New("search: prepared query from a different searcher family")

// PreparedIndex is an Index that splits query encoding out of the search,
// so the sharded scatter in internal/shard encodes a query exactly once and
// searches every shard with the prepared form. It is the type of a shard's
// sub-searcher; Starmie and D3L implement it.
type PreparedIndex interface {
	Index
	// Prepare encodes the query once; the result may be reused across any
	// number of calls and across searchers sharing this one's encoder
	// state.
	Prepare(query *table.Table) PreparedQuery
	// TopKPrepared is TopKContext over an already-encoded query: in exact
	// mode TopKPrepared(ctx, Prepare(q), k) is bit-identical to
	// TopKContext(ctx, q, k).
	TopKPrepared(ctx context.Context, pq PreparedQuery, k int) ([]Scored, error)
	// NominatePrepared returns candidate table names, name-sorted, without
	// scoring them, so a coordinator can run retrieval per shard and exact
	// scoring once globally. depth bounds the per-query-vector neighbor
	// count for graph backends (HNSW); set-shaped backends (the exact scan,
	// LSH buckets) ignore it and return their whole set. An approximate
	// backend may return an empty list when it has no signal (e.g. empty
	// LSH buckets); callers decide the fallback.
	NominatePrepared(ctx context.Context, pq PreparedQuery, depth int) ([]string, error)
	// ScorePrepared exactly scores one indexed table under pq. It panics on
	// a foreign preparation or an unindexed table — both composition errors
	// of the owning coordinator, not runtime conditions.
	ScorePrepared(pq PreparedQuery, t *table.Table) float64
}

// MaintenanceStats describes the tombstone debt of a searcher's mutable
// index structures — the signal a background maintainer watches to decide
// when a compaction pass is worth a snapshot rebuild. Zero values mean the
// corresponding structure does not exist (no graph installed, no LSH index).
type MaintenanceStats struct {
	// GraphNodes is the HNSW node count including tombstones; GraphLive is
	// the live subset. GraphDeletedFraction is dead/total, 0 for no graph.
	GraphNodes           int
	GraphLive            int
	GraphDeletedFraction float64
	// LSHEntries is the LSH banding index's slot count including tombstones,
	// LSHDead the tombstoned subset, LSHDeadFraction their ratio.
	LSHEntries      int
	LSHDead         int
	LSHDeadFraction float64
}

// MaxDeadFraction returns the worst tombstone fraction across the tracked
// structures — the single number maintenance thresholds compare against.
func (m MaintenanceStats) MaxDeadFraction() float64 {
	if m.GraphDeletedFraction > m.LSHDeadFraction {
		return m.GraphDeletedFraction
	}
	return m.LSHDeadFraction
}

// Merge combines per-shard stats into a lake-wide view: counts sum,
// fractions take the per-shard maximum (one rotten shard should trip the
// maintainer even if the rest of the lake is clean).
func (m MaintenanceStats) Merge(o MaintenanceStats) MaintenanceStats {
	m.GraphNodes += o.GraphNodes
	m.GraphLive += o.GraphLive
	if o.GraphDeletedFraction > m.GraphDeletedFraction {
		m.GraphDeletedFraction = o.GraphDeletedFraction
	}
	m.LSHEntries += o.LSHEntries
	m.LSHDead += o.LSHDead
	if o.LSHDeadFraction > m.LSHDeadFraction {
		m.LSHDeadFraction = o.LSHDeadFraction
	}
	return m
}

// IndexFootprint is one index's resident-size report: the storage kind
// ("quantized", "float", or "none") and its estimated bytes.
type IndexFootprint struct {
	Storage string
	Bytes   int64
}

// indexBytes derives the IndexBytes answer for a (possibly nil) graph.
func indexBytes(ix *ann.Index) (string, int64) {
	switch {
	case ix == nil:
		return "none", 0
	case ix.Quantized():
		return "quantized", ix.Bytes()
	default:
		return "float", ix.Bytes()
	}
}

// Option configures a searcher's execution, shared by every searcher in
// this package.
type Option func(*options)

type options struct {
	workers   int
	mode      Mode
	corpus    *tokenize.Corpus
	quantized bool
}

// WithWorkers bounds the parallelism of index construction and query
// scoring; n <= 0 selects the GOMAXPROCS-derived default and n == 1 forces
// the sequential path. Results are identical for every worker count.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithMode selects the retrieval backend at construction time (default
// Exact); constructing in ANN mode builds the approximate index as part
// of indexing. Equivalent to SetMode right after construction.
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// WithSharedCorpus installs an externally owned TF-IDF corpus instead of
// building one from the indexed tables. The corpus must already contain the
// column documents of every table in the wider table universe the caller
// coordinates — e.g. all shards of a partitioned lake — including this
// searcher's own tables: the constructor only computes over-budget flags
// and embeds against the given statistics. Mutations on a searcher carrying
// a shared corpus never touch it; the owning layer updates the corpus and
// calls RefreshBig on every searcher sharing it. Only Starmie consults the
// corpus (its embeddings are TF-IDF-sensitive); other searchers ignore the
// option.
func WithSharedCorpus(c *tokenize.Corpus) Option { return func(o *options) { o.corpus = c } }

// WithQuantized selects SQ8 scalar-quantized storage for the ANN candidate
// graph (internal/ann), cutting its resident vector memory 4x. It applies
// whenever this searcher builds a graph — SetMode(ANN) on a graph-less
// searcher, or a maintenance rebuild from embeddings; a graph loaded from
// disk or carried through Compact/Clone keeps its stored representation.
// Exact-mode results are unaffected (quantization only shapes candidate
// nomination; scoring always runs on the exact float64 embeddings), and
// ANN recall stays gated against the exact oracle.
func WithQuantized(on bool) Option { return func(o *options) { o.quantized = on } }

func applyOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// rankTablesCtx is the scoring stage of the staged query plan: it scores
// the given candidate tables (in parallel across workers) and returns the
// top k, ties broken by table name for determinism. Scores are written by
// candidate index, so the ranking is identical for every worker count.
// Once ctx is cancelled the remaining candidates are not scored and
// ctx.Err() is returned instead of a partial ranking; cancellation is
// checked per table, the natural work unit of the scan.
func rankTablesCtx(ctx context.Context, tables []*table.Table, k, workers int, score func(t *table.Table) float64) ([]Scored, error) {
	out := make([]Scored, len(tables))
	if err := par.ForCtx(ctx, workers, len(tables), func(i int) {
		out[i] = Scored{Table: tables[i], Score: score(tables[i])}
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table.Name < out[j].Table.Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// MAP computes Mean Average Precision of a searcher against a benchmark's
// unionability ground truth, retrieving k results per query (§6.5.2).
func MAP(s Searcher, b *datagen.Benchmark, k int) float64 {
	if len(b.Queries) == 0 {
		return 0
	}
	var sum float64
	for _, q := range b.Queries {
		truth := map[string]bool{}
		for _, n := range b.Unionable[q.Name] {
			truth[n] = true
		}
		if len(truth) == 0 {
			continue
		}
		hits := 0
		var ap float64
		for i, sc := range s.TopK(q, k) {
			if truth[sc.Table.Name] {
				hits++
				ap += float64(hits) / float64(i+1)
			}
		}
		denom := len(truth)
		if k < denom {
			denom = k
		}
		if denom > 0 {
			sum += ap / float64(denom)
		}
	}
	return sum / float64(len(b.Queries))
}
