package dtn

import (
	"reflect"
	"testing"

	"glr/internal/geom"
)

func TestLocationTableUpdate(t *testing.T) {
	lt := NewLocationTable()
	if !lt.Update(1, geom.Pt(5, 5), 10) {
		t.Fatal("first update should succeed")
	}
	if lt.Update(1, geom.Pt(6, 6), 9) {
		t.Error("older timestamp must not overwrite")
	}
	if lt.Update(1, geom.Pt(6, 6), 10) {
		t.Error("equal timestamp must not overwrite")
	}
	if !lt.Update(1, geom.Pt(6, 6), 11) {
		t.Error("fresher timestamp should overwrite")
	}
	e, ok := lt.Get(1)
	if !ok || !e.Pos.Eq(geom.Pt(6, 6)) || e.Time != 11 {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := lt.Get(99); ok {
		t.Error("unknown id should miss")
	}
}

func TestLocationTableMerge(t *testing.T) {
	a := NewLocationTable()
	b := NewLocationTable()
	a.Update(1, geom.Pt(1, 1), 10)
	a.Update(2, geom.Pt(2, 2), 10)
	b.Update(1, geom.Pt(9, 9), 20) // fresher
	b.Update(3, geom.Pt(3, 3), 5)  // new node
	if n := a.Merge(b); n != 2 {
		t.Errorf("Merge updated %d rows, want 2", n)
	}
	if e, _ := a.Get(1); !e.Pos.Eq(geom.Pt(9, 9)) {
		t.Error("fresher entry should win on merge")
	}
	if e, _ := a.Get(2); !e.Pos.Eq(geom.Pt(2, 2)) {
		t.Error("unrelated entry should survive")
	}
	if got := a.IDs(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("IDs = %v", got)
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestNeighborTableObserveExpire(t *testing.T) {
	nt := NewDenseNeighborTable(8)
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 0), LastSeen: 10})
	nt.Observe(NeighborInfo{ID: 2, Pos: geom.Pt(2, 0), LastSeen: 20})
	nt.Observe(NeighborInfo{ID: 3, Pos: geom.Pt(3, 0), LastSeen: 30})
	if nt.Len() != 3 {
		t.Fatalf("Len = %d", nt.Len())
	}
	gone := nt.Expire(20) // rows with LastSeen ≤ 20
	if !reflect.DeepEqual(gone, []int{1, 2}) {
		t.Errorf("expired %v, want [1 2]", gone)
	}
	if nt.Len() != 1 {
		t.Errorf("Len after expire = %d", nt.Len())
	}
	if _, ok := nt.Get(3); !ok {
		t.Error("fresh row should survive")
	}
	nt.Remove(3)
	if nt.Len() != 0 {
		t.Error("Remove should drop the row")
	}
}

func TestNeighborTableRefresh(t *testing.T) {
	nt := NewDenseNeighborTable(8)
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 0), LastSeen: 10})
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(5, 0), LastSeen: 15})
	r, _ := nt.Get(1)
	if !r.Pos.Eq(geom.Pt(5, 0)) || r.LastSeen != 15 {
		t.Errorf("row not refreshed: %+v", r)
	}
	if nt.Len() != 1 {
		t.Error("refresh must not duplicate rows")
	}
}

func TestNeighborTableSnapshotSorted(t *testing.T) {
	nt := NewDenseNeighborTable(8)
	for _, id := range []int{5, 1, 3} {
		nt.Observe(NeighborInfo{ID: id, LastSeen: 1})
	}
	snap := nt.Snapshot()
	if len(snap) != 3 || snap[0].ID != 1 || snap[1].ID != 3 || snap[2].ID != 5 {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

func TestTwoHopPoints(t *testing.T) {
	nt := NewDenseNeighborTable(8)
	nt.Observe(NeighborInfo{
		ID: 1, Pos: geom.Pt(10, 0), LastSeen: 1,
		Neighbors: []NeighborNeighbor{
			{ID: 2, Pos: geom.Pt(20, 0)},
			{ID: 0, Pos: geom.Pt(0, 0)}, // self appears in neighbor's list
		},
	})
	nt.Observe(NeighborInfo{
		ID: 3, Pos: geom.Pt(0, 10), LastSeen: 1,
		Neighbors: []NeighborNeighbor{
			{ID: 2, Pos: geom.Pt(20, 0)}, // duplicate two-hop
			{ID: 4, Pos: geom.Pt(0, 20)},
		},
	})
	ids, pts := nt.TwoHopPoints(0, geom.Pt(0, 0))
	if len(ids) != len(pts) {
		t.Fatal("parallel slices must align")
	}
	if ids[0] != 0 || !pts[0].Eq(geom.Pt(0, 0)) {
		t.Fatal("self must come first")
	}
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	got := map[int]bool{}
	for _, id := range ids {
		if got[id] {
			t.Fatalf("duplicate id %d in two-hop set", id)
		}
		got[id] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two-hop ids = %v, want %v", got, want)
	}
}

func TestTwoHopPointsEmpty(t *testing.T) {
	nt := NewDenseNeighborTable(8)
	ids, pts := nt.TwoHopPoints(7, geom.Pt(1, 2))
	if len(ids) != 1 || ids[0] != 7 || !pts[0].Eq(geom.Pt(1, 2)) {
		t.Error("empty table should yield only self")
	}
}
