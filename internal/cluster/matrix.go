// Package cluster implements the hierarchical clustering substrate used by
// three parts of the reproduction: holistic column alignment (paper §3.3),
// DUST's candidate-tuple selection (§5.2), and the CLT baseline (§6.4.2).
// It provides agglomerative clustering with average/single/complete linkage
// via the nearest-neighbour-chain algorithm, cannot-link constraints (no
// two columns of the same table may align), silhouette-coefficient model
// selection, and medoid extraction.
package cluster

import (
	"math"

	"dust/internal/par"
	"dust/internal/vector"
)

// Matrix is a symmetric pairwise distance matrix stored in float32 to halve
// memory for the larger tuple-clustering workloads.
type Matrix struct {
	n int
	d []float32
}

// NewMatrix computes the pairwise distance matrix of items under dist,
// sequentially. Use NewMatrixWorkers when dist is concurrency-safe and the
// workload warrants fanning out.
func NewMatrix(items []vector.Vec, dist vector.DistanceFunc) *Matrix {
	return NewMatrixWorkers(items, dist, 1)
}

// NewMatrixWorkers is NewMatrix with an explicit worker bound (<= 0 means
// the GOMAXPROCS default, 1 the sequential path). dist must be safe for
// concurrent calls when workers != 1; each cell is computed exactly once,
// so the result is identical for every worker count. When dist is
// vector.CosineDistance itself (not a wrapper) the matrix is filled by a
// dedicated kernel whose cells are bitwise the ones dist would give.
func NewMatrixWorkers(items []vector.Vec, dist vector.DistanceFunc, workers int) *Matrix {
	if isCosineDistance(dist) && sameLen(items) {
		return newCosineMatrix(items, workers)
	}
	return NewMatrixFromFuncWorkers(len(items), func(i, j int) float64 {
		return dist(items[i], items[j])
	}, workers)
}

// NewMatrixFromFunc builds a distance matrix by calling f for every pair
// (i < j), sequentially.
func NewMatrixFromFunc(n int, f func(i, j int) float64) *Matrix {
	return NewMatrixFromFuncWorkers(n, f, 1)
}

// NewMatrixFromFuncWorkers builds a distance matrix in parallel row blocks.
// Rows are paired (i with n-1-i) so every work unit covers a near-constant
// number of upper-triangle cells despite the triangular iteration space.
// Each worker owns disjoint rows and writes disjoint cells — (i,j) and its
// mirror (j,i) are written only by the worker computing row min(i,j) — so
// construction is race-free and bit-identical to the sequential loop.
func NewMatrixFromFuncWorkers(n int, f func(i, j int) float64, workers int) *Matrix {
	m := &Matrix{n: n, d: make([]float32, n*n)}
	m.fillRows(workers, func(i int) {
		for j := i + 1; j < n; j++ {
			m.set(i, j, f(i, j))
		}
	})
	return m
}

// fillRows runs fillRow for every row i, each computing the cells (i, j>i),
// with rows paired so work units are near-equal (see
// NewMatrixFromFuncWorkers).
func (m *Matrix) fillRows(workers int, fillRow func(i int)) {
	n := m.n
	half := (n + 1) / 2
	par.For(workers, half, func(i int) {
		fillRow(i)
		if j := n - 1 - i; j > i {
			fillRow(j)
		}
	})
}

// set stores the distance of the pair (i, j) in both of its cells.
func (m *Matrix) set(i, j int, d float64) {
	v := float32(d)
	m.d[i*m.n+j] = v
	m.d[j*m.n+i] = v
}

// Len returns the number of items.
func (m *Matrix) Len() int { return m.n }

// At returns the distance between items i and j.
func (m *Matrix) At(i, j int) float64 { return float64(m.d[i*m.n+j]) }

// medoidParallelThreshold is the member count above which Medoid fans the
// per-member distance sums out to the worker pool; below it the goroutine
// overhead dwarfs the O(len(members)^2) scan.
const medoidParallelThreshold = 128

// Medoid returns the member of the given item set with the minimum total
// distance to the other members (ties break to the member listed first),
// sequentially. It panics on an empty set.
func (m *Matrix) Medoid(members []int) int {
	return m.MedoidWorkers(members, 1)
}

// MedoidWorkers is Medoid with an explicit worker bound. Each member's
// distance sum accumulates sequentially in member order inside one
// goroutine, and the argmin scan stays sequential, so the selection is
// bit-identical for every worker count.
func (m *Matrix) MedoidWorkers(members []int, workers int) int {
	if len(members) == 0 {
		panic("cluster: Medoid of empty set")
	}
	if len(members) < medoidParallelThreshold {
		workers = 1
	}
	sums := par.Map(workers, len(members), func(k int) float64 {
		var sum float64
		for _, j := range members {
			sum += m.At(members[k], j)
		}
		return sum
	})
	best := members[0]
	bestSum := math.Inf(1)
	for k, i := range members {
		if sums[k] < bestSum {
			bestSum = sums[k]
			best = i
		}
	}
	return best
}
