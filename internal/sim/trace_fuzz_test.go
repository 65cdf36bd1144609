package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"glr/internal/geom"
	"glr/internal/mobility"
)

// fuzzTrace decodes bytes into trace waypoints, 24 bytes (T, X, Y as
// raw IEEE-754 bits) per waypoint, so NaN, ±Inf, subnormals and extreme
// magnitudes all occur; a trailing partial waypoint is dropped.
func fuzzTrace(b []byte) []mobility.TracePoint {
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[i:])) }
	var tr []mobility.TracePoint
	for i := 0; i+24 <= len(b); i += 24 {
		tr = append(tr, mobility.TracePoint{T: f(i), P: geom.Pt(f(i+8), f(i+16))})
	}
	return tr
}

// encodeTrace is fuzzTrace's inverse, for seeding the corpus.
func encodeTrace(tr []mobility.TracePoint) []byte {
	var b []byte
	for _, tp := range tr {
		for _, v := range []float64{tp.T, tp.P.X, tp.P.Y} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// FuzzTraceMobility: an arbitrary waypoint set must either be rejected
// by Scenario.Validate or yield a trace model whose position is finite
// at every finite time — at each waypoint, between waypoints, far
// before and after, and at the fuzzed query time t. Nothing may panic.
// Plain `go test` replays the seed corpus.
func FuzzTraceMobility(f *testing.F) {
	pt := func(t, x, y float64) mobility.TracePoint { return mobility.TracePoint{T: t, P: geom.Pt(x, y)} }
	seeds := [][]mobility.TracePoint{
		{pt(0, 10, 10), pt(30, 100, 100)},
		{pt(0, 100, 100)},
		{pt(0, 10, 160), pt(4, 1490, 160), pt(8, 10, 160)},
		{pt(math.NaN(), 10, 10), pt(30, 100, 100)},
		{pt(math.Inf(-1), 10, 10), pt(30, 100, 100)},
		{pt(0, math.NaN(), 10)},
		{pt(0, 10, math.Inf(1))},
		{pt(-math.MaxFloat64, 0, 0), pt(math.MaxFloat64, 1500, 300)},
		{pt(0, 0, 0), pt(5e-324, 1500, 300)},
	}
	for _, tr := range seeds {
		f.Add(encodeTrace(tr), 15.0)
	}
	f.Fuzz(func(t *testing.T, b []byte, at float64) {
		s := DefaultScenario(100)
		s.N = 2
		s.SimTime = 60
		s.Mobility = MobilityTrace
		s.Traces = [][]mobility.TracePoint{fuzzTrace(b), {pt(0, 1, 1)}}
		if s.Validate() != nil {
			return
		}
		tr := s.Traces[0]
		m, err := mobility.NewTrace(tr)
		if err != nil {
			t.Fatalf("Validate accepted a trace NewTrace rejects: %v", err)
		}
		queries := []float64{0, -math.MaxFloat64, math.MaxFloat64, tr[0].T}
		if !math.IsNaN(at) && !math.IsInf(at, 0) {
			queries = append(queries, at)
		}
		for i := 1; i < len(tr); i++ {
			queries = append(queries, tr[i].T, tr[i-1].T/2+tr[i].T/2)
		}
		for _, q := range queries {
			p := m.Position(q)
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Fatalf("Position(%v) = %v on accepted trace %v", q, p, tr)
			}
		}
	})
}
