package mac

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// benchMediumBroadcast measures the end-to-end cost of one broadcast
// airing — carrier sense, transmission, and reception resolution — on a
// 1000-radio medium at the paper's node density (50 nodes per
// 1500×300 m). The naive variant scans every radio and every active
// transmission; the grid variant touches only the sender's
// neighborhood.
func benchMediumBroadcast(b *testing.B, disableIndex bool) {
	const n = 1000
	cfg := DefaultConfig(100)
	cfg.DisableSpatialIndex = disableIndex

	// Fixed density: area grows linearly with the node count.
	area := float64(n) / (50.0 / (1500 * 300))
	side := math.Sqrt(area)

	sched := des.NewScheduler()
	m, err := NewMedium(sched, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		if _, err := m.AddRadio(i, func() geom.Point { return p }, nil, nil); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	// One frame object reused across iterations: the airing completes
	// (and the MAC drops its reference) before the next Send, and the
	// benchmark measures the medium, not frame allocation.
	f := &Frame{Dst: Broadcast, Bits: 8000}
	for i := 0; i < b.N; i++ {
		m.radios[i%n].Send(f)
		sched.RunAll()
	}
	b.ReportMetric(float64(m.stats.Delivered)/float64(b.N), "recv/op")
}

func BenchmarkMediumBroadcastNaive(b *testing.B) { benchMediumBroadcast(b, true) }

func BenchmarkMediumBroadcastGrid(b *testing.B) { benchMediumBroadcast(b, false) }

// BenchmarkMediumContended measures reception resolution under heavy
// contention: 200 radios in a 400×400 m cluster (about 40 per reception
// disc) each queue 20 frames of 8000 bits, every third one unicast to a
// neighbour, and the medium runs until every queue drains. Carrier
// sensing, deferrals, collisions and retries all happen at once, so the
// scans over retained airings dominate.
func BenchmarkMediumContended(b *testing.B) {
	const (
		n      = 200
		side   = 400.0
		frames = 20
	)
	cfg := DefaultConfig(100)
	sched := des.NewScheduler()
	m, err := NewMedium(sched, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pos := make([]geom.Point, n)
	for i := range pos {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		pos[i] = p
		if _, err := m.AddRadio(i, func() geom.Point { return p }, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Frame objects are reused across iterations: every queue drains
	// (and the MAC drops its references) before the next round.
	queued := make([][]*Frame, n)
	for i := range queued {
		for k := 0; k < frames; k++ {
			f := &Frame{Dst: Broadcast, Bits: 8000}
			if k%3 == 2 {
				for {
					j := rng.Intn(n)
					if j != i && pos[j].Dist2(pos[i]) <= cfg.Range*cfg.Range {
						f.Dst = j
						break
					}
				}
			}
			queued[i] = append(queued[i], f)
		}
	}

	round := func() {
		for i, fs := range queued {
			for _, f := range fs {
				m.radios[i].Send(f)
			}
		}
		sched.RunAll()
	}
	// One warm-up round grows the medium's and scheduler's buffers, so
	// B/op and allocs/op measure the steady state.
	round()
	before := m.stats

	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		round()
	}
	b.ReportMetric(float64(m.stats.Delivered-before.Delivered)/float64(b.N), "recv/op")
	b.ReportMetric(float64(m.stats.Collisions-before.Collisions)/float64(b.N), "collisions/op")
}
