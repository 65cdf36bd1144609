package dtn

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glr/internal/geom"
)

// refNeighborTable is the reference neighbor table the row-array
// backends are checked against: rows keyed by id in a Go map, every
// output sorted on demand, two-hop dedup through a fresh set per call.
// It is the obviously-correct form of the NeighborTable contract.
type refNeighborTable struct {
	m map[int]NeighborInfo
}

func newRefNeighborTable() *refNeighborTable {
	return &refNeighborTable{m: make(map[int]NeighborInfo)}
}

func (t *refNeighborTable) Len() int { return len(t.m) }

func (t *refNeighborTable) Observe(info NeighborInfo) {
	if info.ID < 0 {
		return // the row-array backends ignore negative ids
	}
	info.Neighbors = append([]NeighborNeighbor(nil), info.Neighbors...)
	t.m[info.ID] = info
}

func (t *refNeighborTable) Get(id int) (NeighborInfo, bool) {
	r, ok := t.m[id]
	return r, ok
}

func (t *refNeighborTable) Remove(id int) { delete(t.m, id) }

func (t *refNeighborTable) Expire(deadline float64) []int {
	var gone []int
	for id, r := range t.m {
		if r.LastSeen <= deadline {
			gone = append(gone, id)
			delete(t.m, id)
		}
	}
	sort.Ints(gone)
	return gone
}

func (t *refNeighborTable) Snapshot() []NeighborInfo {
	out := make([]NeighborInfo, 0, len(t.m))
	for _, r := range t.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *refNeighborTable) AppendAdvertised(buf []NeighborNeighbor) []NeighborNeighbor {
	for _, r := range t.Snapshot() {
		buf = append(buf, NeighborNeighbor{ID: r.ID, Pos: r.Pos})
	}
	return buf
}

func (t *refNeighborTable) TwoHopPoints(selfID int, selfPos geom.Point) ([]int, []geom.Point) {
	ids := []int{selfID}
	pts := []geom.Point{selfPos}
	seen := map[int]struct{}{selfID: {}}
	for _, r := range t.Snapshot() {
		if _, dup := seen[r.ID]; !dup {
			seen[r.ID] = struct{}{}
			ids = append(ids, r.ID)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if _, dup := seen[nn.ID]; dup {
				continue
			}
			seen[nn.ID] = struct{}{}
			ids = append(ids, nn.ID)
			pts = append(pts, nn.Pos)
		}
	}
	return ids, pts
}

// checkTablesAgree asserts every observable output of a row-array
// backend matches the reference for the current state.
func checkTablesAgree(t *testing.T, m *refNeighborTable, d *NeighborTable, idSpace int) {
	t.Helper()
	if m.Len() != d.Len() {
		t.Fatalf("Len: map %d, dense %d", m.Len(), d.Len())
	}
	if !neighborsEqual(m.Snapshot(), d.Snapshot()) {
		t.Fatalf("Snapshot mismatch:\nmap   %+v\ndense %+v", m.Snapshot(), d.Snapshot())
	}
	mi, mp := m.TwoHopPoints(idSpace, geom.Pt(1, 2))
	di, dp := d.TwoHopPoints(idSpace, geom.Pt(1, 2))
	if !reflect.DeepEqual(mi, di) || !reflect.DeepEqual(mp, dp) {
		t.Fatalf("TwoHopPoints mismatch:\nmap   %v %v\ndense %v %v", mi, mp, di, dp)
	}
	if !reflect.DeepEqual(m.AppendAdvertised(nil), d.AppendAdvertised(nil)) {
		t.Fatalf("AppendAdvertised mismatch")
	}
	for id := -1; id <= idSpace; id++ {
		mr, mok := m.Get(id)
		dr, dok := d.Get(id)
		if mok != dok {
			t.Fatalf("Get(%d) presence: map %v, dense %v", id, mok, dok)
		}
		if mok && !neighborRowEqual(mr, dr) {
			t.Fatalf("Get(%d): map %+v, dense %+v", id, mr, dr)
		}
	}
}

// neighborRowEqual compares rows treating nil and empty Neighbors as
// equal (the backends differ only in backing-array provenance).
func neighborRowEqual(a, b NeighborInfo) bool {
	if a.ID != b.ID || a.Pos != b.Pos || a.LastSeen != b.LastSeen {
		return false
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	return true
}

func neighborsEqual(a, b []NeighborInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !neighborRowEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestNeighborTableDenseMapEquivalenceChurn drives the dense and
// compact backends and the map-based reference through randomized
// Observe/Expire/Remove churn — neighbors expiring, re-appearing, and
// ids (and compact row slots) being reused across generations —
// asserting identical Snapshot/TwoHopPoints/Get results throughout.
func TestNeighborTableDenseMapEquivalenceChurn(t *testing.T) {
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*2671 + 9))
		idSpace := 4 + rng.Intn(28)
		m := newRefNeighborTable()
		d := NewDenseNeighborTable(idSpace)
		c := NewCompactNeighborTable()
		now := 0.0
		for step := 0; step < 300; step++ {
			now += rng.Float64()
			switch op := rng.Intn(10); {
			case op < 6: // observe a beacon (possibly an id re-appearing)
				id := rng.Intn(idSpace)
				adv := make([]NeighborNeighbor, rng.Intn(5))
				for i := range adv {
					adv[i] = NeighborNeighbor{
						ID:  rng.Intn(idSpace + 4), // ids beyond the pre-size too
						Pos: geom.Pt(rng.Float64()*100, rng.Float64()*100),
					}
				}
				info := NeighborInfo{
					ID:        id,
					Pos:       geom.Pt(rng.Float64()*100, rng.Float64()*100),
					LastSeen:  now,
					Neighbors: adv,
				}
				m.Observe(info)
				d.Observe(info)
				c.Observe(info)
			case op < 8: // expire stale rows
				deadline := now - rng.Float64()*3
				gm := append([]int(nil), m.Expire(deadline)...)
				gd := append([]int(nil), d.Expire(deadline)...)
				gc := append([]int(nil), c.Expire(deadline)...)
				if (!reflect.DeepEqual(gm, gd) || !reflect.DeepEqual(gm, gc)) &&
					(len(gm) > 0 || len(gd) > 0 || len(gc) > 0) {
					t.Fatalf("trial %d step %d: Expire map %v, dense %v, compact %v", trial, step, gm, gd, gc)
				}
			default: // remove one id
				id := rng.Intn(idSpace)
				m.Remove(id)
				d.Remove(id)
				c.Remove(id)
			}
			if step%17 == 0 {
				checkTablesAgree(t, m, d, idSpace+4)
				checkTablesAgree(t, m, c, idSpace+4)
			}
		}
		checkTablesAgree(t, m, d, idSpace+4)
		checkTablesAgree(t, m, c, idSpace+4)
	}
}

// TestNeighborTableRelabelInvariance asserts the dense backend is
// insensitive to id labels: relabeling every id through a random
// bijection relabels TwoHopPoints output without changing its geometry.
func TestNeighborTableRelabelInvariance(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*577 + 3))
		n := 6 + rng.Intn(20)
		perm := rng.Perm(n) // bijection id -> perm[id]

		orig := NewDenseNeighborTable(n)
		rel := NewDenseNeighborTable(n)
		pos := make([]geom.Point, n)
		for id := range pos {
			pos[id] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		for step := 0; step < 60; step++ {
			id := rng.Intn(n - 1)
			adv := make([]NeighborNeighbor, rng.Intn(4))
			for i := range adv {
				nid := rng.Intn(n)
				adv[i] = NeighborNeighbor{ID: nid, Pos: pos[nid]}
			}
			info := NeighborInfo{ID: id, Pos: pos[id], LastSeen: float64(step)}
			info.Neighbors = adv
			orig.Observe(info)
			radv := make([]NeighborNeighbor, len(adv))
			for i, nn := range adv {
				radv[i] = NeighborNeighbor{ID: perm[nn.ID], Pos: nn.Pos}
			}
			rel.Observe(NeighborInfo{ID: perm[id], Pos: pos[id], LastSeen: float64(step), Neighbors: radv})
		}

		self := n - 1
		ids, pts := orig.TwoHopPoints(self, pos[self])
		rids, rpts := rel.TwoHopPoints(perm[self], pos[self])
		if len(ids) != len(rids) {
			t.Fatalf("trial %d: size %d vs %d", trial, len(ids), len(rids))
		}
		// Same id set under the bijection, and each id keeps its point.
		want := map[int]geom.Point{}
		for i, id := range ids {
			want[perm[id]] = pts[i]
		}
		for i, rid := range rids {
			p, ok := want[rid]
			if !ok || p != rpts[i] {
				t.Fatalf("trial %d: relabeled id %d missing or moved", trial, rid)
			}
		}
	}
}

// TestLocationTableDenseMapEquivalence churns both location-table
// backends with updates (stale and fresh), merges, and resets.
func TestLocationTableDenseMapEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*911 + 1))
		idSpace := 4 + rng.Intn(28)
		m := NewLocationTable()
		d := NewDenseLocationTable(idSpace)
		for step := 0; step < 300; step++ {
			id := rng.Intn(idSpace + 4)
			pos := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			ts := rng.Float64() * 50 // deliberately non-monotone: stale updates
			if got, want := d.Update(id, pos, ts), m.Update(id, pos, ts); got != want {
				t.Fatalf("trial %d step %d: Update changed=%v, map %v", trial, step, got, want)
			}
		}
		if m.Len() != d.Len() {
			t.Fatalf("Len: map %d, dense %d", m.Len(), d.Len())
		}
		if !reflect.DeepEqual(m.IDs(), d.IDs()) {
			t.Fatalf("IDs: map %v, dense %v", m.IDs(), d.IDs())
		}
		for id := -1; id <= idSpace+4; id++ {
			me, mok := m.Get(id)
			de, dok := d.Get(id)
			if mok != dok || me != de {
				t.Fatalf("Get(%d): map %v %v, dense %v %v", id, me, mok, de, dok)
			}
		}
		// Cross-backend merges agree with map-to-map merges.
		sink1, sink2 := NewLocationTable(), NewDenseLocationTable(idSpace)
		if n1, n2 := sink1.Merge(d), sink2.Merge(m); n1 != n2 {
			t.Fatalf("Merge counts differ: %d vs %d", n1, n2)
		}
		if !reflect.DeepEqual(sink1.IDs(), sink2.IDs()) {
			t.Fatal("merged id sets differ")
		}
		d.Reset()
		if d.Len() != 0 {
			t.Fatal("Reset should empty the table")
		}
		if _, ok := d.Get(1); ok {
			t.Fatal("Reset must invalidate rows")
		}
	}
}

// TestDenseNeighborTableReset exercises reset on both row-array
// backends (dense: O(1) generation bump; compact: slot recycling): rows
// from before the reset must be invisible, and id reuse afterwards must
// behave like a fresh table.
func TestDenseNeighborTableReset(t *testing.T) {
	for name, d := range map[string]*NeighborTable{
		"dense":   NewDenseNeighborTable(4),
		"compact": NewCompactNeighborTable(),
	} {
		d.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 1), LastSeen: 5})
		d.Observe(NeighborInfo{ID: 2, Pos: geom.Pt(2, 2), LastSeen: 5})
		d.Reset()
		if d.Len() != 0 {
			t.Fatalf("%s: Len after reset = %d", name, d.Len())
		}
		if _, ok := d.Get(1); ok {
			t.Fatalf("%s: stale row visible after reset", name)
		}
		d.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(9, 9), LastSeen: 7})
		r, ok := d.Get(1)
		if !ok || !r.Pos.Eq(geom.Pt(9, 9)) || len(r.Neighbors) != 0 {
			t.Fatalf("%s: reused id row = %+v, ok=%v", name, r, ok)
		}
		if ids := d.Expire(10); len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("%s: Expire after reuse = %v", name, ids)
		}
	}
}
