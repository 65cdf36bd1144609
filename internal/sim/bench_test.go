package sim

import (
	"math"
	"testing"

	"glr/internal/dtn"
	"glr/internal/mobility"
)

// nopProtocol isolates the node/MAC beacon plane: no routing, no
// traffic — every cost measured is table bookkeeping, pooled hello
// frames, and medium resolution.
type nopProtocol struct{}

func (nopProtocol) Init(*Node)                      {}
func (nopProtocol) OnMessageGenerated(*dtn.Message) {}
func (nopProtocol) OnFrame(any, int)                {}
func (nopProtocol) OnBeacon(Beacon)                 {}
func (nopProtocol) StorageUsed() int                { return 0 }

// BenchmarkBeaconTick measures one full beacon interval of a 500-node
// world at the paper's density: every node broadcasts its hello, every
// receiver refreshes its neighbor/location tables, and the medium
// resolves all receptions. This is the simulator's steady-state load
// with routing factored out.
func BenchmarkBeaconTick(b *testing.B) {
	const n = 500
	area := float64(n) / (50.0 / (1500 * 300))
	h := math.Sqrt(area / 5)

	s := DefaultScenario(100)
	s.N = n
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.SimTime = 1e9 // horizon unused; the benchmark steps manually

	w, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} })
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: let tables, pools, and the spatial index reach steady
	// state before measuring.
	until := 3 * s.BeaconInterval
	w.Scheduler().Run(until)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += s.BeaconInterval
		w.Scheduler().Run(until)
	}
}
