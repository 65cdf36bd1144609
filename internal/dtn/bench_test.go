package dtn

import (
	"math/rand"
	"testing"

	"glr/internal/geom"
)

// BenchmarkNeighborTableDense measures the steady-state per-beacon table work of
// one node: refresh a neighbor row (with its advertised list), expire,
// and rebuild the 2-hop point set — the sequence the simulator runs for
// every received beacon plus route check. The dense backend should do
// this allocation-free once warm.
func BenchmarkNeighborTableDense(b *testing.B) {
	const n = 1000 // world size
	const degree = 24
	rng := rand.New(rand.NewSource(17))

	t := NewDenseNeighborTable(n)

	// Steady-state neighborhood: `degree` live neighbors, each
	// advertising `degree` of its own.
	nbrIDs := rng.Perm(n)[:degree]
	advs := make([][]NeighborNeighbor, degree)
	for i := range advs {
		advs[i] = make([]NeighborNeighbor, degree)
		for j := range advs[i] {
			advs[i][j] = NeighborNeighbor{ID: rng.Intn(n), Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
		}
	}
	for i, id := range nbrIDs {
		t.Observe(NeighborInfo{ID: id, Pos: geom.Pt(float64(id), 0), LastSeen: 0, Neighbors: advs[i]})
	}

	var ids []int
	var pts []geom.Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		k := i % degree
		t.Observe(NeighborInfo{ID: nbrIDs[k], Pos: geom.Pt(float64(i%97), 1), LastSeen: now, Neighbors: advs[k]})
		t.Expire(now - 1e9) // nothing expires; measures the live scan
		ids, pts = t.AppendTwoHop(ids[:0], pts[:0], n, geom.Pt(0, 0))
	}
	_ = ids
	_ = pts
}
