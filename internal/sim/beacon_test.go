package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"glr/internal/des"
)

// beaconFire is one hello send: when, and by which node.
type beaconFire struct {
	at des.Time
	id int
}

// ringFires records the (time, node) fire sequence of a beaconRing over
// phases up to horizon, and the scheduler's pending count right after
// the ring was built.
func ringFires(phases []float64, interval, horizon float64) (fires []beaconFire, pending int) {
	sched := des.NewScheduler()
	newBeaconRing(sched, interval, phases, func(ids []int) {
		for _, id := range ids {
			fires = append(fires, beaconFire{sched.Now(), id})
		}
	})
	pending = sched.Pending()
	sched.Run(horizon)
	return fires, pending
}

// tickerFires records the same sequence for the reference: one
// des.Ticker per node, armed in id order.
func tickerFires(phases []float64, interval, horizon float64) []beaconFire {
	sched := des.NewScheduler()
	var fires []beaconFire
	for id, p := range phases {
		id := id
		des.NewTicker(sched, interval, p, func() {
			fires = append(fires, beaconFire{sched.Now(), id})
		})
	}
	sched.Run(horizon)
	return fires
}

// mergedTies counts consecutive fires at the same instant by nodes
// whose phases differ: fire times that only became equal through
// accumulated interval additions.
func mergedTies(fires []beaconFire, phases []float64) int {
	n := 0
	for i := 1; i < len(fires); i++ {
		a, b := fires[i-1], fires[i]
		if a.at == b.at && phases[a.id] != phases[b.id] {
			n++
		}
	}
	return n
}

// TestBeaconRingMatchesTickers is the reference oracle for the beacon
// ring: over the same phases it must fire exactly the (time, node)
// sequence per-node des.Tickers produce, while keeping one event
// pending instead of one per node. The phase sets cover random draws,
// bit-equal draws (which tie from the first cycle on), runs of adjacent
// floats that merge after one interval addition, and phases at both
// ends of the interval (the cycle wrap).
func TestBeaconRingMatchesTickers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	random := func(n int, interval float64) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64() * interval
		}
		return p
	}
	// adjacent returns k runs of m consecutive floats each, the runs'
	// starting points drawn in [0, interval) and the ids shuffled so ring
	// order differs from id order.
	adjacent := func(k, m int, interval float64) []float64 {
		var p []float64
		for i := 0; i < k; i++ {
			x := rng.Float64() * interval
			for j := 0; j < m; j++ {
				p = append(p, x)
				x = math.Nextafter(x, math.Inf(1))
			}
		}
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	for _, interval := range []float64{1, 0.7} {
		dup := random(60, interval)
		for i := 0; i < 20; i++ {
			dup[rng.Intn(len(dup))] = dup[rng.Intn(len(dup))]
		}
		edges := append(random(10, interval), 0, 0, math.Nextafter(interval, 0), interval)
		cases := []struct {
			name      string
			phases    []float64
			wantMerge bool
		}{
			{"random", random(200, interval), false},
			{"bit-equal", dup, false},
			{"merging", adjacent(8, 6, interval), true},
			{"edges", edges, false},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/interval=%v", tc.name, interval), func(t *testing.T) {
				const horizon = 60
				got, pending := ringFires(tc.phases, interval, horizon)
				want := tickerFires(tc.phases, interval, horizon)
				if pending != 1 {
					t.Fatalf("ring keeps %d events pending, want 1", pending)
				}
				if len(want) < len(tc.phases)*int(horizon/interval) {
					t.Fatalf("reference fired only %d times", len(want))
				}
				if !reflect.DeepEqual(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("ring diverges from per-node tickers at fire %d of %d/%d", i, len(got), len(want))
				}
				if tc.wantMerge && mergedTies(want, tc.phases) == 0 {
					t.Fatal("no distinct phases merged; the case does not test merging")
				}
			})
		}
	}
}

// TestBeaconGroupRingOrder checks the ring end to end in a world: every
// node beacons once per interval, so over 3.5 intervals each fires
// either 3 or 4 times depending on phase.
func TestBeaconGroupRingOrder(t *testing.T) {
	s := DefaultScenario(100)
	s.Name = "beacon-ring"
	s.N = 6
	s.SimTime = 3.5
	s.Mobility = MobilityStatic
	w, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Run()
	got := rep.ControlFrames
	if got < uint64(3*s.N) || got > uint64(4*s.N) {
		t.Fatalf("%d control frames over %v s, want %d..%d", got, s.SimTime, 3*s.N, 4*s.N)
	}
}
