package mac

import (
	"fmt"
	"math/rand"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// bothPaths runs f once on the indexed medium and once on the naive
// full-scan medium.
func bothPaths(t *testing.T, f func(t *testing.T, naive bool)) {
	for _, naive := range []bool{false, true} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) { f(t, naive) })
	}
}

// TestLongAiringKeepsEarlyInterferer: an airing longer than any fixed
// retention period must still see the interferers that overlapped its
// start. C is hidden from A (beyond carrier-sense range) but interferes
// at B, and C's short frame overlaps the start of A's two-second frame,
// so B must lose A's frame.
func TestLongAiringKeepsEarlyInterferer(t *testing.T) {
	bothPaths(t, func(t *testing.T, naive bool) {
		cfg := DefaultConfig(120) // carrier-sense range 240 m < |AC| = 250 m
		cfg.DisableSpatialIndex = naive
		n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(250, 0)})
		long := &Frame{Dst: Broadcast, Bits: 2000000}
		n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 400}) })
		n.sched.At(0.0001, func() { n.radios[0].Send(long) })
		n.sched.RunAll()
		if !n.sent[0][long] {
			t.Fatal("the long frame never finished airing")
		}
		if len(n.recv[1]) != 0 {
			t.Errorf("B received %d frames; C's airing overlaps the start of A's and must corrupt it", len(n.recv[1]))
		}
		if n.medium.Stats().Collisions == 0 {
			t.Error("the collision at B was not counted")
		}
	})
}

// TestRetentionInvariants drives a dense, contended medium with mixed
// unicast and broadcast traffic, short frames and a few multi-second
// ones, and checks after every prune that
//
//	(a) every airing overlapping a still-unresolved airing is retained
//	    in active[head:] and, in index mode, registered in txIdx;
//	(b) every retained airing started within twice the longest airtime
//	    seen so far.
//
// Both paths must also end with identical counters.
func TestRetentionInvariants(t *testing.T) {
	const (
		n       = 120
		side    = 300.0
		horizon = 10.0
	)
	var stats [2]Stats
	bothPaths(t, func(t *testing.T, naive bool) {
		rng := rand.New(rand.NewSource(20261017))
		cfg := DefaultConfig(60)
		cfg.DisableSpatialIndex = naive
		positions := make([]geom.Point, n)
		for i := range positions {
			positions[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		net := newTestNet(t, cfg, positions)
		m := net.medium

		// Traffic: about 15 frames per radio over the horizon, a third of
		// them unicast to a random neighbour, plus three multi-second
		// broadcasts.
		send := func(at des.Time, src, dst, bits int) {
			net.sched.At(at, func() { net.radios[src].Send(&Frame{Dst: dst, Bits: bits}) })
		}
		for src := 0; src < n; src++ {
			var nbrs []int
			for j, p := range positions {
				if j != src && p.Dist2(positions[src]) <= cfg.Range*cfg.Range {
					nbrs = append(nbrs, j)
				}
			}
			for k := 0; k < 15; k++ {
				dst := Broadcast
				if len(nbrs) > 0 && rng.Intn(3) == 0 {
					dst = nbrs[rng.Intn(len(nbrs))]
				}
				send(rng.Float64()*horizon, src, dst, 200+rng.Intn(19801))
			}
		}
		for k := 0; k < 3; k++ {
			send(rng.Float64()*horizon, rng.Intn(n), Broadcast, 2000000+rng.Intn(2000000))
		}

		// seen holds value copies of the airings observed at a prune
		// that could still overlap an unresolved one. Every airing is
		// observed at least at the prune of its own resolution tick,
		// so the distinct airings ever observed must end equal to the
		// medium's transmission count.
		type key struct {
			src   int
			start des.Time
		}
		seen := make(map[key]airing)
		observed := make(map[key]bool)
		var maxAir des.Time
		checks := 0
		m.afterPrune = func() {
			now := m.sched.Now()
			live := m.active[m.head:]
			retained := make(map[key]*transmission, len(live))
			for _, u := range live {
				k := key{u.from.id, u.start}
				retained[k] = u
				if !observed[k] {
					seen[k] = airing{start: u.start, end: u.end}
					observed[k] = true
				}
				maxAir = max(maxAir, u.end-u.start)
			}
			for _, u := range live {
				if now-u.start > 2*maxAir+1e-9 {
					t.Fatalf("t=%v: airing [%v,%v] retained beyond twice the longest airtime %v", now, u.start, u.end, maxAir)
				}
				if u.resolved {
					continue
				}
				for k, s := range seen {
					if !(s.start < u.end && u.start < s.end) {
						continue
					}
					r, ok := retained[k]
					if !ok {
						t.Fatalf("t=%v: airing [%v,%v] by radio %d released while it overlaps unresolved [%v,%v]",
							now, s.start, s.end, k.src, u.start, u.end)
					}
					if !naive && !registered(m, r) {
						t.Fatalf("t=%v: retained airing [%v,%v] by radio %d is missing from the transmission index",
							now, s.start, s.end, k.src)
					}
				}
			}
			// Every unresolved airing ends at or after now, so it started
			// at or after now-maxAir; nothing that ended by then can
			// overlap one.
			for k, s := range seen {
				if s.end <= now-maxAir {
					delete(seen, k)
				}
			}
			checks++
		}
		net.sched.RunAll()

		st := m.Stats()
		if uint64(len(observed)) != st.Transmissions {
			t.Errorf("observed %d distinct airings, medium made %d", len(observed), st.Transmissions)
		}
		if checks == 0 || st.Collisions == 0 || maxAir < 2 {
			t.Fatalf("vacuous run: %d prunes, %d collisions, longest airtime %v s", checks, st.Collisions, maxAir)
		}
		if naive {
			stats[1] = st
		} else {
			stats[0] = st
		}
	})
	if stats[0] != stats[1] {
		t.Errorf("stats differ:\n grid  %+v\n naive %+v", stats[0], stats[1])
	}
}

// registered reports whether t's anchors are indexed under its handles.
func registered(m *Medium, t *transmission) bool {
	for _, h := range []int{t.h0, t.h1} {
		if h < 0 {
			continue
		}
		if _, ok := m.txIdx.At(h); !ok || m.txByHandle[h] != t {
			return false
		}
	}
	return true
}
