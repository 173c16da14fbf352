package dust

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dust/internal/datagen"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/shard"
	"dust/internal/table"
)

func TestPipelineSaveLoadWarmStart(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"starmie", "d3l"} {
		t.Run(kind, func(t *testing.T) {
			opts := []Option{WithTopTables(5)}
			if kind == "d3l" {
				opts = append(opts, WithSearcher(search.NewD3L(b.Lake)))
			}
			cold := New(b.Lake, opts...)
			want, err := cold.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}

			idxDir := filepath.Join(t.TempDir(), "index")
			if HasIndex(idxDir) {
				t.Error("HasIndex true before save")
			}
			if err := cold.SaveIndex(idxDir); err != nil {
				t.Fatal(err)
			}
			if !HasIndex(idxDir) {
				t.Error("HasIndex false after save")
			}

			warm, err := LoadPipeline(lakeDir, idxDir, WithTopTables(5))
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "warm vs cold "+kind, got, want)
		})
	}
}

func TestPipelineSaveLoadWithModel(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	pairs := datagen.Pairs(b, 60, 7)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 16, OutDim: 8, Epochs: 2, Patience: 2, LR: 0.01, Seed: 1,
	})
	cold := New(b.Lake, WithTupleEncoder(m))
	want, err := cold.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}

	idxDir := filepath.Join(t.TempDir(), "index")
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "tuple.model")); err != nil {
		t.Fatalf("model file not written: %v", err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs cold with model", got, want)
}

func TestSaveIndexOverwriteDropsStaleModel(t *testing.T) {
	b, q := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}
	pairs := datagen.Pairs(b, 40, 3)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 16, OutDim: 8, Epochs: 1, Patience: 1, LR: 0.01, Seed: 1,
	})
	idxDir := filepath.Join(t.TempDir(), "index")
	if err := New(b.Lake, WithTupleEncoder(m)).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}

	// Re-saving a model-less pipeline into the same directory must not
	// leave the old tuple.model behind for the new manifest to miss.
	cold := New(b.Lake)
	if err := cold.SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(idxDir, "tuple.model")); !os.IsNotExist(err) {
		t.Errorf("stale tuple.model survived the overwrite (err = %v)", err)
	}
	warm, err := LoadPipeline(lakeDir, idxDir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "overwritten index", got, want)
}

func TestLoadPipelineErrors(t *testing.T) {
	b, _ := benchLake(t)
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := b.Lake.Save(lakeDir); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadPipeline(lakeDir, t.TempDir()); !errors.Is(err, ErrNoIndex) {
		t.Errorf("empty index dir: err = %v, want ErrNoIndex", err)
	}

	idxDir := filepath.Join(t.TempDir(), "index")
	if err := New(b.Lake).SaveIndex(idxDir); err != nil {
		t.Fatal(err)
	}

	// A lake that gained a table since the save must be rejected.
	staleDir := filepath.Join(t.TempDir(), "stale-lake")
	if err := b.Lake.Save(staleDir); err != nil {
		t.Fatal(err)
	}
	extra := table.New("newcomer", "a", "b")
	extra.MustAppendRow("x", "y")
	if err := extra.SaveCSV(filepath.Join(staleDir, "newcomer.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipeline(staleDir, idxDir); !errors.Is(err, search.ErrLakeMismatch) {
		t.Errorf("stale lake: err = %v, want ErrLakeMismatch", err)
	}

	// A corrupted searcher file must be rejected by its checksum.
	raw, err := os.ReadFile(filepath.Join(idxDir, "searcher.dustidx"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(idxDir, "searcher.dustidx"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipeline(lakeDir, idxDir); err == nil {
		t.Error("corrupted searcher file loaded without error")
	}
}

func TestSaveIndexUnsupportedSearcher(t *testing.T) {
	b, _ := benchLake(t)
	p := New(b.Lake, WithSearcher(fakeSearcher{}))
	if err := p.SaveIndex(t.TempDir()); !errors.Is(err, ErrUnsupportedSearcher) {
		t.Errorf("err = %v, want ErrUnsupportedSearcher", err)
	}
	if err := p.AddTable(table.New("x", "a")); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("AddTable err = %v, want ErrNotIncremental", err)
	}
	if err := p.RemoveTable("x"); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("RemoveTable err = %v, want ErrNotIncremental", err)
	}
	// Every other index accessor answers with its documented
	// absent-capability value for a plain search.Searcher.
	if _, err := p.Clone(); !errors.Is(err, ErrNotCloneable) {
		t.Errorf("Clone err = %v, want ErrNotCloneable", err)
	}
	if _, ok := p.MaintenanceStats(); ok {
		t.Error("MaintenanceStats ok = true")
	}
	if p.SetAutoCompact(false) {
		t.Error("SetAutoCompact = true")
	}
	if p.Compact() {
		t.Error("Compact = true")
	}
	if _, ok := p.ModeView(search.ANN); ok {
		t.Error("ModeView ok = true")
	}
	if p.PrepareANN() {
		t.Error("PrepareANN = true")
	}
	if fp := p.IndexBytes(); fp != (search.IndexFootprint{Storage: "none"}) {
		t.Errorf("IndexBytes = %+v, want none/0", fp)
	}
	if got := p.ShardSizes(); got != nil {
		t.Errorf("ShardSizes = %v, want nil", got)
	}
	if got := p.ShardIndexBytes(); got != nil {
		t.Errorf("ShardIndexBytes = %v, want nil", got)
	}
	if p.InstrumentScatter(&shard.StageTimings{}) {
		t.Error("InstrumentScatter = true")
	}
}

type fakeSearcher struct{}

func (fakeSearcher) Name() string                               { return "fake" }
func (fakeSearcher) TopK(q *table.Table, k int) []search.Scored { return nil }

func TestPipelineIncrementalMatchesRebuild(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5))

	grown := table.New("late_arrival", q.Headers()...)
	for i := 0; i < q.NumRows(); i++ {
		grown.MustAppendRow(q.Row(i)...)
	}
	if err := p.AddTable(grown); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTable(grown); err == nil {
		t.Error("duplicate AddTable should error")
	}
	if p.Lake().Get("late_arrival") == nil {
		t.Fatal("AddTable did not reach the lake")
	}

	fresh := New(b.Lake, WithTopTables(5))
	want, err := fresh.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after AddTable", got, want)

	if err := p.RemoveTable("late_arrival"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveTable("late_arrival"); err == nil {
		t.Error("second RemoveTable should error")
	}
	if p.Lake().Get("late_arrival") != nil {
		t.Error("RemoveTable left the table in the lake")
	}
	fresh = New(b.Lake, WithTopTables(5))
	want, err = fresh.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err = p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after RemoveTable", got, want)
}
