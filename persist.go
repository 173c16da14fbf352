package dust

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dust/internal/codec"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/shard"
	"dust/internal/table"
)

// ManifestFormatVersion is the index-directory manifest payload version.
// Version 2 appended the pipeline's mutation epoch; version 3 appended the
// staged-retrieval state (whether the searcher runs in ANN mode and
// whether an HNSW graph file sits alongside the searcher index); version 4
// appended the shard map (shard count plus each shard's table list — zero
// shards means a monolithic index). Older manifests still load: their
// epoch reads as 0, their mode as exact, and their layout as monolithic.
const ManifestFormatVersion uint16 = 4

// Index-directory layout. The manifest is written last so a directory with
// a partial save (crash mid-write) is treated as having no index at all.
// A monolithic index stores its searcher as searcher.dustidx (plus
// ann.dustidx for a saved HNSW graph); a sharded index stores one
// shard-NNN.dustidx per shard (plus shard-NNN.ann.dustidx), with the shard
// map recorded in the manifest.
const (
	manifestFile = "manifest.dustidx"
	searcherFile = "searcher.dustidx"
	annFile      = "ann.dustidx"
	modelFile    = "tuple.model"
)

// shardSearcherFile names shard i's searcher index file.
func shardSearcherFile(i int) string { return fmt.Sprintf("shard-%03d.dustidx", i) }

// shardANNFile names shard i's HNSW candidate-graph file.
func shardANNFile(i int) string { return fmt.Sprintf("shard-%03d.ann.dustidx", i) }

// Typed failures of the pipeline persistence and mutation surfaces.
var (
	// ErrNoIndex reports a LoadPipeline directory without a manifest.
	ErrNoIndex = errors.New("dust: no saved index in directory")
	// ErrUnsupportedSearcher reports SaveIndex on a pipeline whose
	// searcher has no persistent form (only the built-in Starmie and D3L
	// searchers do).
	ErrUnsupportedSearcher = errors.New("dust: searcher does not support persistence")
	// ErrNotIncremental reports AddTable/RemoveTable on a pipeline whose
	// searcher is a plain search.Searcher rather than a search.Index.
	ErrNotIncremental = errors.New("dust: searcher does not support incremental updates")
	// ErrNotCloneable reports Clone on a pipeline whose searcher is a plain
	// search.Searcher rather than a search.Index (every built-in one is).
	ErrNotCloneable = errors.New("dust: searcher does not support cloning")
	// ErrShardLayout reports a sharded index directory whose shard files
	// do not match the manifest's recorded shard map — most often a shard
	// count mismatch (files missing after a partial copy, or a manifest
	// from a different save).
	ErrShardLayout = errors.New("dust: shard files do not match the saved shard map")
)

// Lake returns the data lake this pipeline searches.
func (p *Pipeline) Lake() *lake.Lake { return p.lake }

// Shards reports how many index shards back the pipeline's searcher: 1 for
// a monolithic index (the default), n for a WithShards(n) or warm-started
// sharded layout.
func (p *Pipeline) Shards() int {
	if s, ok := p.searcher.(*shard.Searcher); ok {
		return s.NumShards()
	}
	return 1
}

// Epoch returns the pipeline's index mutation epoch: 0 for a freshly built
// pipeline (or the saved epoch for one warm-started from an index
// directory), incremented by every successful AddTable/RemoveTable and
// carried over by Clone. Two pipeline states with different epochs may rank
// queries differently, so serving layers key their result caches by it.
func (p *Pipeline) Epoch() uint64 { return p.epoch }

// Clone returns an independently mutable copy of the pipeline: the lake and
// the searcher's mutable containers are copied while the heavy immutable
// index state (embedding vectors, signatures) is shared, so the clone costs
// O(tables), not O(index). AddTable/RemoveTable on the clone leave the
// original — and any queries in flight against it — untouched, which is
// what lets a serving layer apply mutations on a copy-on-write shadow and
// atomically swap it in. Requires a search.Index searcher.
func (p *Pipeline) Clone() (*Pipeline, error) {
	ix, ok := p.index()
	if !ok {
		return nil, fmt.Errorf("dust: Clone: %T: %w", p.searcher, ErrNotCloneable)
	}
	c := *p
	c.lake = p.lake.Clone()
	c.searcher = ix.CloneWithLake(c.lake)
	return &c, nil
}

// AddTable adds a table to the lake and, via the searcher's delta update,
// to the search index — no rebuild. Query results afterwards are
// bit-identical to a pipeline constructed from scratch over the grown lake.
func (p *Pipeline) AddTable(t *table.Table) error {
	ix, ok := p.index()
	if !ok {
		return fmt.Errorf("dust: AddTable: %T: %w", p.searcher, ErrNotIncremental)
	}
	if err := p.lake.Add(t); err != nil {
		return err
	}
	if err := ix.AddTable(t); err != nil {
		// Keep lake and index in sync: a table the index refused must not
		// linger in the lake (the lake Add above was this call's own).
		_ = p.lake.Remove(t.Name)
		return err
	}
	p.epoch++
	return nil
}

// RemoveTable removes a table from the search index and the lake, costing
// O(delta) instead of a rebuild.
func (p *Pipeline) RemoveTable(name string) error {
	ix, ok := p.index()
	if !ok {
		return fmt.Errorf("dust: RemoveTable: %T: %w", p.searcher, ErrNotIncremental)
	}
	// Reject up front a table the lake does not hold, before the index is
	// touched: not every searcher consults the lake on removal, and a
	// half-applied removal would leave the index and lake disagreeing.
	if p.lake.Get(name) == nil {
		return fmt.Errorf("dust: RemoveTable: %w: %q", lake.ErrUnknownTable, name)
	}
	// Searchers un-index while the table is still in the lake (Starmie has
	// to retire its columns from the corpus).
	if err := ix.RemoveTable(name); err != nil {
		return err
	}
	// The index has mutated: bump the epoch before the lake sync so an
	// epoch-keyed cache can never conflate the new index state with the
	// old, even if the (practically impossible, membership was checked
	// above) lake removal fails.
	p.epoch++
	return p.lake.Remove(name)
}

// searcherKind names the persistent form of the pipeline's searcher (the
// base kind for a sharded layout; the manifest's shard map, not the kind,
// records shardedness).
func (p *Pipeline) searcherKind() (string, error) {
	switch s := p.searcher.(type) {
	case *search.Starmie:
		return "starmie", nil
	case *search.D3L:
		return "d3l", nil
	case *shard.Searcher:
		switch s.Kind() {
		case shard.KindStarmie, shard.KindD3L:
			return s.Kind(), nil
		}
		return "", fmt.Errorf("dust: sharded %q: %w", s.Kind(), ErrUnsupportedSearcher)
	default:
		return "", fmt.Errorf("dust: %T: %w", p.searcher, ErrUnsupportedSearcher)
	}
}

// SaveIndex persists the pipeline's index state under dir so a later
// LoadPipeline can skip the cold rebuild: the searcher index (versioned,
// checksummed; one file per shard for a sharded layout), the fine-tuned
// tuple model when one is installed, and a manifest recording the searcher
// kind, the lake's table set, and the shard map.
func (p *Pipeline) SaveIndex(dir string) error {
	kind, err := p.searcherKind()
	if err != nil {
		return err
	}
	sh, sharded := p.searcher.(*shard.Searcher)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Retire any existing manifest before touching component files: the
	// manifest is the marker of a complete save, so a crash mid-overwrite
	// must leave a directory that reads as "no index", never as the old
	// manifest over new component files.
	if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dust: save index: %w", err)
	}
	// Drop every shard file of an earlier save (and, for a sharded save,
	// the monolithic files) so the directory mirrors exactly this save —
	// a layout change must never leave orphans for a later load to trip
	// over.
	stale, _ := filepath.Glob(filepath.Join(dir, "shard-*.dustidx"))
	if sharded {
		stale = append(stale, filepath.Join(dir, searcherFile), filepath.Join(dir, annFile))
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("dust: save index: %w", err)
		}
	}

	if sharded {
		for i := 0; i < sh.NumShards(); i++ {
			i := i
			if err := writeFile(filepath.Join(dir, shardSearcherFile(i)), func(f io.Writer) error {
				return sh.SaveShard(i, f)
			}); err != nil {
				return fmt.Errorf("dust: save shard %d: %w", i, err)
			}
		}
	} else if err := writeFile(filepath.Join(dir, searcherFile), func(f io.Writer) error {
		switch s := p.searcher.(type) {
		case *search.Starmie:
			return s.Save(f)
		case *search.D3L:
			return s.Save(f)
		}
		panic("unreachable: searcherKind accepted " + kind)
	}); err != nil {
		return fmt.Errorf("dust: save index: %w", err)
	}
	m, hasModel := p.tupleEnc.(*model.Model)
	if hasModel {
		if err := writeFile(filepath.Join(dir, modelFile), m.Save); err != nil {
			return fmt.Errorf("dust: save model: %w", err)
		}
	} else if err := os.Remove(filepath.Join(dir, modelFile)); err != nil && !os.IsNotExist(err) {
		// A model file from an earlier save of a model-bearing pipeline
		// would be orphaned; drop it so the directory mirrors this save.
		return fmt.Errorf("dust: save index: %w", err)
	}

	// Staged retrieval state: the HNSW graphs (Starmie only — D3L's
	// approximate backend is its LSH index, already rebuilt from the
	// searcher file) persist beside the searcher index so an ANN warm
	// start skips the graph builds too. A sharded layout saves one graph
	// per shard; hasANN means every shard carries one.
	ix, _ := p.index() // searcherKind accepted a built-in searcher: an Index
	annMode := ix.RetrievalMode() == search.ANN
	hasANN := false
	switch {
	case sharded && kind == shard.KindStarmie:
		hasANN = true
		for i := 0; i < sh.NumShards(); i++ {
			if !sh.Shard(i).(*search.Starmie).HasANN() {
				hasANN = false
				break
			}
		}
		if hasANN {
			for i := 0; i < sh.NumShards(); i++ {
				st := sh.Shard(i).(*search.Starmie)
				if err := writeFile(filepath.Join(dir, shardANNFile(i)), st.SaveANN); err != nil {
					return fmt.Errorf("dust: save shard %d ann graph: %w", i, err)
				}
			}
		}
	case !sharded:
		if s, ok := p.searcher.(*search.Starmie); ok && s.HasANN() {
			hasANN = true
			if err := writeFile(filepath.Join(dir, annFile), s.SaveANN); err != nil {
				return fmt.Errorf("dust: save ann graph: %w", err)
			}
		} else if err := os.Remove(filepath.Join(dir, annFile)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("dust: save index: %w", err)
		}
	}

	var b codec.Buffer
	b.String(kind)
	b.String(p.lake.Name)
	b.Strings(p.lake.Names())
	b.Bool(hasModel)
	b.Uvarint(p.epoch)
	b.Bool(annMode)
	b.Bool(hasANN)
	// v4: the shard map. Zero shards marks a monolithic index; n >= 1
	// promises shard-000..shard-(n-1) files, each covering the recorded
	// table list (in sub-lake iteration order, which the loaders rebuild
	// the partition in).
	if sharded {
		b.Uvarint(uint64(sh.NumShards()))
		for _, names := range sh.ShardTables() {
			b.Strings(names)
		}
	} else {
		b.Uvarint(0)
	}
	if err := writeFile(filepath.Join(dir, manifestFile), func(f io.Writer) error {
		return codec.WriteEnvelope(f, codec.KindManifest, ManifestFormatVersion, b.Bytes())
	}); err != nil {
		return fmt.Errorf("dust: save manifest: %w", err)
	}
	return nil
}

// HasIndex reports whether dir holds a complete saved index (a manifest is
// only written after every component file).
func HasIndex(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

// LoadPipeline reconstructs a pipeline from lake CSVs plus an index
// directory written by SaveIndex, skipping the cold index build. The lake
// must hold exactly the table set recorded in the manifest (the loaders
// also self-validate); options apply on top of the restored searcher and
// model, so e.g. WithWorkers re-bounds query parallelism as usual.
func LoadPipeline(lakeDir, indexDir string, opts ...Option) (*Pipeline, error) {
	l, err := lake.Load(lakeDir)
	if err != nil {
		return nil, fmt.Errorf("dust: load lake: %w", err)
	}
	return LoadPipelineLake(l, indexDir, opts...)
}

// LoadPipelineLake is LoadPipeline for a lake already in memory.
func LoadPipelineLake(l *lake.Lake, indexDir string, opts ...Option) (*Pipeline, error) {
	mf, err := os.Open(filepath.Join(indexDir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("dust: %s: %w", indexDir, ErrNoIndex)
		}
		return nil, err
	}
	version, payload, err := codec.ReadEnvelope(mf, codec.KindManifest, ManifestFormatVersion)
	mf.Close()
	if err != nil {
		return nil, fmt.Errorf("dust: load manifest: %w", err)
	}
	sc := codec.NewScanner(payload)
	kind := sc.String()
	_ = sc.String() // saved lake name; informational only
	names := sc.Strings()
	hasModel := sc.Bool()
	var epoch uint64
	if version >= 2 {
		epoch = sc.Uvarint()
	}
	annMode, hasANN := false, false
	if version >= 3 {
		annMode = sc.Bool()
		hasANN = sc.Bool()
	}
	var shardTables [][]string
	if version >= 4 {
		numShards := sc.Uvarint()
		// A hostile manifest could declare an absurd shard count; cap it
		// well above any real deployment. Empty shards are legal (a lake
		// smaller than its shard count saves and loads fine), so the cap
		// must not depend on the table count.
		const maxShards = 1 << 16
		if sc.Err() == nil && numShards > maxShards {
			return nil, fmt.Errorf("dust: load manifest: %d shards exceeds the %d cap: %w",
				numShards, maxShards, codec.ErrCorrupt)
		}
		for i := uint64(0); i < numShards && sc.Err() == nil; i++ {
			shardTables = append(shardTables, sc.Strings())
		}
	}
	if err := sc.Finish(); err != nil {
		return nil, fmt.Errorf("dust: load manifest: %w", err)
	}
	if len(names) != l.Len() {
		return nil, fmt.Errorf("dust: index holds %d tables, lake holds %d: %w",
			len(names), l.Len(), search.ErrLakeMismatch)
	}
	for _, name := range names {
		if l.Get(name) == nil {
			return nil, fmt.Errorf("dust: indexed table %q not in lake: %w", name, search.ErrLakeMismatch)
		}
	}

	var searcher search.Searcher
	if len(shardTables) > 0 {
		// The shard set's scatter pool is sized at assembly, so it takes the
		// caller's WithWorkers bound (0, the GOMAXPROCS default, without one).
		var o Pipeline
		for _, opt := range opts {
			opt(&o)
		}
		searcher, err = loadShardedSearcher(indexDir, kind, shardTables, l, hasANN, o.workers)
		if err != nil {
			return nil, err
		}
	} else {
		sf, err := os.Open(filepath.Join(indexDir, searcherFile))
		if err != nil {
			return nil, fmt.Errorf("dust: load index: %w", err)
		}
		switch kind {
		case "starmie":
			searcher, err = search.LoadStarmie(sf, l)
		case "d3l":
			searcher, err = search.LoadD3L(sf, l)
		default:
			err = fmt.Errorf("dust: manifest names unknown searcher kind %q: %w", kind, codec.ErrCorrupt)
		}
		sf.Close()
		if err != nil {
			return nil, err
		}
		if hasANN {
			s, ok := searcher.(*search.Starmie)
			if !ok {
				return nil, fmt.Errorf("dust: manifest records an ann graph for searcher kind %q: %w",
					kind, codec.ErrCorrupt)
			}
			af, err := os.Open(filepath.Join(indexDir, annFile))
			if err != nil {
				return nil, fmt.Errorf("dust: load ann graph: %w", err)
			}
			err = s.LoadANN(af)
			af.Close()
			if err != nil {
				return nil, err
			}
		}
	}

	loaded := []Option{WithSearcher(searcher)}
	if annMode {
		// Restore the saved retrieval mode; SetMode reuses the graph just
		// installed (or, for D3L / a graphless save, rebuilds cheaply).
		// Explicit caller options apply afterwards and win as usual.
		loaded = append(loaded, WithRetriever(search.ANN))
	}
	if hasModel {
		f, err := os.Open(filepath.Join(indexDir, modelFile))
		if err != nil {
			return nil, fmt.Errorf("dust: load model: %w", err)
		}
		m, err := model.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dust: load model: %w", err)
		}
		loaded = append(loaded, WithTupleEncoder(m))
	}
	p := New(l, append(loaded, opts...)...)
	// Resume the saved mutation epoch so serving-layer caches keyed by
	// (fingerprint, epoch) stay distinct across a save/load cycle.
	p.epoch = epoch
	return p, nil
}

// loadShardedSearcher reconstitutes a sharded searcher from per-shard
// index files: the manifest's shard map rebuilds each sub-lake (tables in
// their saved order), every shard file loads against its own sub-lake
// (self-validating: encoder fingerprint, table set, checksums), per-shard
// ANN graphs install when the manifest promises them, and shard.Assemble
// re-binds the set to one shared corpus. A shard file missing for a
// recorded shard is ErrShardLayout — the count in the manifest and the
// files on disk disagree.
func loadShardedSearcher(indexDir, kind string, shardTables [][]string, l *lake.Lake, hasANN bool, workers int) (search.Searcher, error) {
	parts := make([]shard.Part, len(shardTables))
	for i, names := range shardTables {
		sl := lake.New(fmt.Sprintf("%s#%d", l.Name, i))
		for _, name := range names {
			t := l.Get(name)
			if t == nil {
				return nil, fmt.Errorf("dust: shard %d table %q not in lake: %w", i, name, search.ErrLakeMismatch)
			}
			if err := sl.Add(t); err != nil {
				return nil, fmt.Errorf("dust: shard %d map: %v: %w", i, err, codec.ErrCorrupt)
			}
		}
		sf, err := os.Open(filepath.Join(indexDir, shardSearcherFile(i)))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("dust: shard %d/%d missing %s: %w",
					i, len(shardTables), shardSearcherFile(i), ErrShardLayout)
			}
			return nil, fmt.Errorf("dust: load shard %d: %w", i, err)
		}
		var sub search.Searcher
		switch kind {
		case shard.KindStarmie:
			sub, err = search.LoadStarmie(sf, sl)
		case shard.KindD3L:
			sub, err = search.LoadD3L(sf, sl)
		default:
			err = fmt.Errorf("dust: manifest names unknown searcher kind %q: %w", kind, codec.ErrCorrupt)
		}
		sf.Close()
		if err != nil {
			return nil, fmt.Errorf("dust: load shard %d: %w", i, err)
		}
		if hasANN {
			st, ok := sub.(*search.Starmie)
			if !ok {
				return nil, fmt.Errorf("dust: manifest records ann graphs for searcher kind %q: %w",
					kind, codec.ErrCorrupt)
			}
			af, err := os.Open(filepath.Join(indexDir, shardANNFile(i)))
			if err != nil {
				if os.IsNotExist(err) {
					return nil, fmt.Errorf("dust: shard %d missing %s: %w",
						i, shardANNFile(i), ErrShardLayout)
				}
				return nil, fmt.Errorf("dust: load shard %d ann graph: %w", i, err)
			}
			err = st.LoadANN(af)
			af.Close()
			if err != nil {
				return nil, fmt.Errorf("dust: load shard %d: %w", i, err)
			}
		}
		parts[i] = shard.Part{Lake: sl, Searcher: sub}
	}
	s, err := shard.Assemble(l, kind, parts, shard.Config{Workers: workers})
	if err != nil {
		// Keeps shard.ErrLayoutMismatch reachable through errors.Is.
		return nil, fmt.Errorf("dust: load sharded index: %w", err)
	}
	return s, nil
}

// writeFile creates path, streams content through write, and closes it,
// reporting the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
