package search

import (
	"context"
	"errors"
	"testing"

	"dust/internal/datagen"
)

func ctxLake() *datagen.Benchmark {
	return datagen.Generate("ctx-search", datagen.Config{
		Seed: 11, Domains: 3, TablesPerBase: 4, BaseRows: 30, MinRows: 8, MaxRows: 15,
	})
}

// TestTopKContextCancelled pins the cancellation contract of every
// searcher: a cancelled context yields (nil, context.Canceled), never a
// truncated ranking.
func TestTopKContextCancelled(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, s := range []Index{NewStarmie(b.Lake), NewD3L(b.Lake)} {
		hits, err := s.TopKContext(ctx, q, 5)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: TopKContext = %v, want context.Canceled", s.Name(), err)
		}
		if hits != nil {
			t.Errorf("%s: cancelled TopKContext returned %d hits", s.Name(), len(hits))
		}
	}

	ts := NewTupleSearch(b.Lake.Tables())
	if _, err := ts.TopKContext(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("tuplesearch: TopKContext = %v, want context.Canceled", err)
	}
}

// TestTopKContextMatchesTopK pins the background-context path to the plain
// TopK ranking.
func TestTopKContextMatchesTopK(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	for _, s := range []Index{NewStarmie(b.Lake), NewD3L(b.Lake)} {
		want := s.TopK(q, 5)
		got, err := s.TopKContext(context.Background(), q, 5)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits, want %d", s.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
				t.Fatalf("%s: hit %d = %s/%g, want %s/%g", s.Name(), i,
					got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
			}
		}
	}
}

// TestTopKCtxPlainSearcher covers the fallback for searchers without a
// context path.
func TestTopKCtxPlainSearcher(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	s := NewStarmie(b.Lake)
	plain := struct{ Searcher }{s} // hides TopKContext
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := TopKCtx(ctx, plain, q, 5); err != nil {
		t.Fatalf("TopKCtx live ctx: %v", err)
	}
	cancel()
	if _, err := TopKCtx(ctx, plain, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKCtx cancelled = %v, want context.Canceled", err)
	}
}

// TestCloneWithLakeIsolation pins the copy-on-write contract: mutations on
// a clone never change what the original searcher returns.
func TestCloneWithLakeIsolation(t *testing.T) {
	b := ctxLake()
	q := b.Queries[0]
	build := []func() Index{
		func() Index { return NewStarmie(b.Lake) },
		func() Index { return NewD3L(b.Lake) },
	}
	for _, f := range build {
		orig := f()
		want := orig.TopK(q, 5)

		l2 := b.Lake.Clone()
		clone := orig.CloneWithLake(l2)
		extra := b.Lake.Tables()[0].Clone("zz_cloned_extra")
		if err := l2.Add(extra); err != nil {
			t.Fatal(err)
		}
		if err := clone.AddTable(extra); err != nil {
			t.Fatalf("%s: clone AddTable: %v", orig.Name(), err)
		}
		victim := b.Lake.Names()[1]
		if err := clone.RemoveTable(victim); err != nil {
			t.Fatalf("%s: clone RemoveTable: %v", orig.Name(), err)
		}
		if err := l2.Remove(victim); err != nil {
			t.Fatal(err)
		}

		got := orig.TopK(q, 5)
		if len(got) != len(want) {
			t.Fatalf("%s: original changed after clone mutations: %d hits, want %d", orig.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
				t.Fatalf("%s: original ranking changed after clone mutations at %d: %s/%g, want %s/%g",
					orig.Name(), i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
			}
		}
	}
}
