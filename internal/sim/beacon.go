package sim

import (
	"sort"

	"glr/internal/des"
)

// beaconRing schedules every node's hello beacon through one pending
// event. Per-node des.Tickers would keep n beacon events resident in the
// scheduler at all times; the ring keeps exactly one.
//
// Order argument. Every node fires at its phase, then at now + interval
// from each exact fire time — the float accumulation des.Ticker performs.
// Floating-point addition of a fixed interval is monotone (x ≤ y implies
// fl(x+I) ≤ fl(y+I)), so if node a fires no later than node b in one
// cycle, it fires no later in every later cycle, and the last node of a
// cycle fires no later than the first node of the next. Sorting the nodes
// once by (phase, id) therefore gives the global fire order for the whole
// run, and a cursor walking that ring visits nodes in it. Fire times that
// are bit-equal — equal phase draws, or distinct phases whose
// accumulations round onto the same float — fire back to back under one
// event in ring order. That is the per-node tickers' order too: tied
// tickers dispatch in the order they were (re-)armed, which is their
// previous fire order, which is ring order (id order for equal phases,
// since the tickers are first armed in id order).
// TestBeaconRingMatchesTickers checks this against per-node tickers,
// bit-equal and merging phases included.
type beaconRing struct {
	sched    *des.Scheduler
	interval float64
	ids      []int      // node ids sorted by (phase, id)
	nextAt   []des.Time // next fire time per ring position
	cursor   int        // ring position that fires next
	due      []int      // scratch: ids firing at the current instant
	send     func(ids []int)
}

// newBeaconRing builds the ring over phases (node id → first fire time)
// and arms its single event. send receives, at each fire instant, the ids
// due then in ring order; the slice is scratch reused by the next fire.
func newBeaconRing(sched *des.Scheduler, interval float64, phases []float64, send func(ids []int)) *beaconRing {
	r := &beaconRing{
		sched:    sched,
		interval: interval,
		ids:      make([]int, len(phases)),
		nextAt:   make([]des.Time, len(phases)),
		send:     send,
	}
	for i := range r.ids {
		r.ids[i] = i
	}
	// Stable sort by phase: ids start ascending, so bit-equal phases stay
	// in id order.
	sort.SliceStable(r.ids, func(i, j int) bool { return phases[r.ids[i]] < phases[r.ids[j]] })
	for i, id := range r.ids {
		r.nextAt[i] = phases[id]
	}
	if len(r.ids) > 0 {
		r.arm()
	}
	return r
}

// arm schedules the ring's single pending event at the next fire time.
func (r *beaconRing) arm() {
	r.sched.At(r.nextAt[r.cursor], r.fire)
}

// fire collects every node due at the current instant — consecutive ring
// positions — advances their next fire times by one interval, hands them
// to send, and re-arms.
func (r *beaconRing) fire() {
	t := r.sched.Now()
	r.due = r.due[:0]
	for r.nextAt[r.cursor] == t {
		r.due = append(r.due, r.ids[r.cursor])
		// now + interval at the exact fire time: the same float
		// accumulation Ticker.tick performs.
		r.nextAt[r.cursor] = t + r.interval
		r.cursor++
		if r.cursor == len(r.ids) {
			r.cursor = 0
		}
	}
	r.send(r.due)
	r.arm()
}
