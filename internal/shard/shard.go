// Package shard is what remains of the within-run fork-join engine,
// which was removed because none of its parallel planes paid on the
// measured hosts: every run steps on the serial engine. The types below
// are kept for perfbench until the benchmark's next change; nothing in
// the simulator reads them.
package shard

import "math"

// Thresholds held the per-plane minimum batch sizes at which a parallel
// section forked. Kept for perfbench until the benchmark's next change.
type Thresholds struct {
	RxMin, BeaconMin, MobilityMin, DiffMin int
}

// Never returns thresholds pinning every plane serial, the only
// behaviour the engine has. Kept for perfbench until the benchmark's
// next change.
func Never() Thresholds {
	return Thresholds{RxMin: math.MaxInt, BeaconMin: math.MaxInt, MobilityMin: math.MaxInt, DiffMin: math.MaxInt}
}

// Calibrate returns Never(): there is no parallel plane to calibrate.
// Kept for perfbench until the benchmark's next change.
func Calibrate(workers int) Thresholds { return Never() }

// Pool is an empty stand-in for the removed worker pool. Kept for
// perfbench until the benchmark's next change.
type Pool struct{}

// Workers returns 1: every run is serial.
func (*Pool) Workers() int { return 1 }
