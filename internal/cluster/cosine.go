package cluster

import (
	"math"
	"reflect"

	"dust/internal/vector"
)

// cosinePC is the entry point of vector.CosineDistance. Go functions do not
// compare with ==, so NewMatrixWorkers recognises the cosine distance by
// code pointer; a closure wrapping it has its own and takes the generic path.
var cosinePC = reflect.ValueOf(vector.DistanceFunc(vector.CosineDistance)).Pointer()

func isCosineDistance(dist vector.DistanceFunc) bool {
	return dist != nil && reflect.ValueOf(dist).Pointer() == cosinePC
}

// sameLen reports whether all items share one dimension. Mismatched items
// take the generic path, which panics on them as vector.CosineDistance does.
func sameLen(items []vector.Vec) bool {
	for _, v := range items {
		if len(v) != len(items[0]) {
			return false
		}
	}
	return true
}

// newCosineMatrix is NewMatrixWorkers over vector.CosineDistance. Cosine
// walks both vectors of every pair to sum a·b, a·a and b·b; here each
// item's norm is computed once, and a row is filled four columns at a time
// so one pass over items[i] feeds four independent dot accumulators. Every
// sum keeps Cosine's order (k ascending, one accumulator per pair) and the
// final arithmetic is Cosine's, so each cell is bitwise
// float32(vector.CosineDistance(items[i], items[j])).
func newCosineMatrix(items []vector.Vec, workers int) *Matrix {
	n := len(items)
	m := &Matrix{n: n, d: make([]float32, n*n)}
	sq := make([]float64, n) // vector.Dot sums in Cosine's order
	for i, a := range items {
		sq[i] = vector.Dot(a, a)
	}
	// dist is Cosine's tail: zero norm means similarity 0.
	dist := func(dot float64, i, j int) float64 {
		if sq[i] == 0 || sq[j] == 0 {
			return 1
		}
		return 1 - dot/(math.Sqrt(sq[i])*math.Sqrt(sq[j]))
	}
	m.fillRows(workers, func(i int) {
		a := items[i]
		j := i + 1
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := items[j], items[j+1], items[j+2], items[j+3]
			b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
			var d0, d1, d2, d3 float64
			for k, x := range a {
				d0 += x * b0[k]
				d1 += x * b1[k]
				d2 += x * b2[k]
				d3 += x * b3[k]
			}
			m.set(i, j, dist(d0, i, j))
			m.set(i, j+1, dist(d1, i, j+1))
			m.set(i, j+2, dist(d2, i, j+2))
			m.set(i, j+3, dist(d3, i, j+3))
		}
		for ; j < n; j++ {
			m.set(i, j, dist(vector.Dot(a, items[j]), i, j))
		}
	})
	return m
}
