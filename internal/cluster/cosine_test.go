package cluster

import (
	"math"
	"testing"

	"dust/internal/vector"
)

// cosineItems is syntheticVecs with every fifth vector zeroed, so the
// zero-norm branch of the cosine distance appears in every block position.
func cosineItems(n, dim int) []vector.Vec {
	items := syntheticVecs(n, dim)
	for i := 0; i < n; i += 5 {
		items[i] = make(vector.Vec, dim)
	}
	return items
}

func TestCosineMatrixBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 357} {
		items := cosineItems(n, 128)
		want := NewMatrixFromFuncWorkers(n, func(i, j int) float64 {
			return vector.CosineDistance(items[i], items[j])
		}, 1)
		for _, workers := range []int{1, 2, 8} {
			got := NewMatrixWorkers(items, vector.CosineDistance, workers)
			if got.Len() != n {
				t.Fatalf("n=%d workers=%d: Len %d", n, workers, got.Len())
			}
			for c := range want.d {
				if math.Float32bits(got.d[c]) != math.Float32bits(want.d[c]) {
					t.Fatalf("n=%d workers=%d: cell (%d,%d) = %v, want %v",
						n, workers, c/n, c%n, got.d[c], want.d[c])
				}
			}
		}
	}
}

func TestCosineMatrixDispatch(t *testing.T) {
	registered, err := vector.Distance("cosine")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := func(a, b vector.Vec) float64 { return vector.CosineDistance(a, b) }
	for _, c := range []struct {
		name string
		dist vector.DistanceFunc
		fast bool
	}{
		{"CosineDistance", vector.CosineDistance, true},
		{"registered cosine", registered, true},
		{"Euclidean", vector.Euclidean, false},
		{"closure wrapping CosineDistance", wrapped, false},
		{"nil", nil, false},
	} {
		if got := isCosineDistance(c.dist); got != c.fast {
			t.Errorf("%s: isCosineDistance = %v, want %v", c.name, got, c.fast)
		}
	}
	// Items of mixed dimension take the generic path, which panics on
	// them just as the cosine distance itself does.
	defer func() {
		if recover() == nil {
			t.Error("mixed-dimension items did not panic")
		}
	}()
	NewMatrixWorkers([]vector.Vec{{1, 2}, {1, 2, 3}}, vector.CosineDistance, 1)
}

var sinkMatrix *Matrix

func BenchmarkCosineMatrix(b *testing.B) {
	items := syntheticVecs(357, 128)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMatrix = NewMatrixFromFuncWorkers(len(items), func(i, j int) float64 {
				return vector.CosineDistance(items[i], items[j])
			}, 1)
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMatrix = NewMatrixWorkers(items, vector.CosineDistance, 1)
		}
	})
}
