package sim

import (
	"math"
	"sort"

	"glr/internal/des"
)

// beaconGroup aggregates the hello tickers of the nodes in one spatial
// grid cell into a single scheduled event. The reference path arms one
// des.Ticker per node, so a giant world keeps n beacon events pending at
// all times; a group keeps exactly one, cutting the scheduler's resident
// beacon load from n events to one per occupied cell.
//
// Byte-identity argument. Every node fires at phase + k·interval — the
// same floats the Ticker path produces, because a fired member's next
// time is computed as now + interval at its exact fire time, matching
// Ticker.tick. With one shared interval, the members' fire order within
// a cycle is their phase order, which never changes; members is sorted by
// (phase, id), so a cursor walking the ring visits members in exactly
// the order the per-node tickers would fire. Members whose phases are
// bit-equal fire back-to-back under one event in id order — the order
// the per-node path dispatches them, since their tickers were armed (and
// re-armed) in id order. Across nodes with distinct phases the scheduled
// times themselves interleave the sends, identically in both paths.
//
// The one case grouping cannot reproduce is two fire times landing
// bit-equal in different groups: the two group events would tie, and
// their seq order need not match the per-node tickers' re-arm order.
// World.scheduleBeacons detects the systematic source — bit-equal phase
// draws (a ~2⁻⁵³ coincidence per pair) — and falls back to per-node
// tickers. Distinct phases can still merge if thousands of accumulated
// interval additions round two sequences onto the same float, a
// coincidence requiring phases within ~K·ulp of each other; the scale
// sweep's report-identity check verifies every aggregated run against
// the ticker path, so such a merge would fail loudly rather than drift
// silently.
type beaconGroup struct {
	w       *World
	members []*Node    // one cell's nodes, sorted by (phase, id)
	nextAt  []des.Time // next fire time per member, parallel to members
	cursor  int        // index of the member that fires next
}

// arm schedules the group's single pending event at the next member's
// fire time.
func (g *beaconGroup) arm() {
	g.w.sched.At(g.nextAt[g.cursor], g.fire)
}

// fire sends the hello of every member due at the current instant —
// consecutive ring positions, in (phase, id) order — advances their next
// fire times by one interval, and re-arms.
func (g *beaconGroup) fire() {
	if g.w.prof != nil {
		defer g.w.prof.clock(&g.w.prof.Beacon)()
	}
	t := g.w.sched.Now()
	for g.nextAt[g.cursor] == t {
		n := g.members[g.cursor]
		// now + interval at the exact fire time: the same float
		// accumulation Ticker.tick performs.
		g.nextAt[g.cursor] = t + g.w.cfg.BeaconInterval
		g.cursor++
		if g.cursor == len(g.members) {
			g.cursor = 0
		}
		n.sendBeacon()
	}
	g.arm()
}

// buildBeaconGroups partitions nodes by the grid cell of their initial
// position (cell side = transmission range, the same geometry the
// medium's spatial index uses) and returns one group per occupied cell,
// each with its members sorted by (phase, id).
func (w *World) buildBeaconGroups(phases []float64) []*beaconGroup {
	side := w.cfg.Range
	type cellKey struct{ cx, cy int }
	cells := make(map[cellKey][]*Node)
	order := make([]cellKey, 0)
	for _, n := range w.nodes { // id order, so cell member lists stay id-sorted
		p := n.Pos()
		k := cellKey{int(math.Floor(p.X / side)), int(math.Floor(p.Y / side))}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], n)
	}
	groups := make([]*beaconGroup, 0, len(order))
	for _, k := range order {
		members := cells[k]
		g := &beaconGroup{
			w:       w,
			members: members,
			nextAt:  make([]des.Time, len(members)),
		}
		// Stable sort by phase: members is id-ordered, so bit-equal
		// phases stay in id order — the per-node tickers' tie order.
		sort.SliceStable(g.members, func(i, j int) bool {
			return phases[g.members[i].id] < phases[g.members[j].id]
		})
		for i, n := range g.members {
			g.nextAt[i] = phases[n.id]
		}
		groups = append(groups, g)
	}
	return groups
}

// phasesCollide reports whether any two drawn beacon phases are
// bit-equal — the one configuration beacon aggregation cannot reproduce
// byte-identically (see beaconGroup).
func phasesCollide(phases []float64) bool {
	sorted := append([]float64(nil), phases...)
	sort.Float64s(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}
