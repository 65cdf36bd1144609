package core

import (
	"fmt"
	"reflect"
	"testing"

	"glr/internal/metrics"
	"glr/internal/shard"
	"glr/internal/sim"
)

// TestShardedRunEquivalence: across randomized mobile scenarios, a run on
// the sharded engine must produce *identical* end-to-end results to the
// serial engine at every worker count, both with calibrated fork
// thresholds and with every threshold pinned to 0 so every plane forks.
// Parallelism is forced (2/4/8) rather than automatic so the property
// holds on single-CPU CI hosts too. Any divergence means a worker
// observed or influenced simulation state outside the byte-identity
// discipline. The spanner counters must match serial too: sharding does
// no extra spanner work.
func TestShardedRunEquivalence(t *testing.T) {
	const trials = 12
	delivered := 0
	forceFork := &shard.Thresholds{}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			type outcome struct {
				rep                                     metrics.Report
				queries, triBuilds, triHits, resultHits uint64
			}
			run := func(parallelism int, disable bool, thr *shard.Thresholds) outcome {
				factory, maint, err := NewInstrumented(equivConfig(trial, false))
				if err != nil {
					t.Fatal(err)
				}
				s := equivScenario(trial)
				s.Parallelism = parallelism
				s.DisableSharding = disable
				s.ForkThresholds = thr
				w, err := sim.NewWorld(s, factory)
				if err != nil {
					t.Fatal(err)
				}
				if thr != nil && w.ForkThresholds() != *thr {
					t.Fatalf("parallelism=%d: thresholds %+v, want the pinned %+v; the sharded engine never engaged",
						parallelism, w.ForkThresholds(), *thr)
				}
				rep := w.Run()
				st := maint.Stats()
				return outcome{rep, st.Queries, st.TriBuilds, st.TriHits, st.ResultHits}
			}
			serial := run(0, true, nil)
			delivered += serial.rep.Delivered
			for _, workers := range []int{2, 4, 8} {
				for _, thr := range []*shard.Thresholds{nil, forceFork} {
					sharded := run(workers, false, thr)
					if !reflect.DeepEqual(serial, sharded) {
						t.Fatalf("parallelism=%d forceFork=%t diverged from serial:\n  serial:  %+v\n  sharded: %+v",
							workers, thr != nil, serial, sharded)
					}
				}
			}
		})
	}
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
}

// TestShardedFullStackEquivalence crosses the sharding escape hatch with
// every other one — dense tables, spatial index, spanner cache, calendar
// queue — in all thirty-two combinations. Every combination must
// reproduce the all-fast sharded run bit for bit, so any mix of
// reference paths and engines is interchangeable.
func TestShardedFullStackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack flag cross is slow")
	}
	var first interface{}
	var firstName string
	for mask := 0; mask < 32; mask++ {
		denseOff := mask&1 != 0
		spatialOff := mask&2 != 0
		spannerOff := mask&4 != 0
		shardOff := mask&8 != 0
		calendarOff := mask&16 != 0
		name := fmt.Sprintf("dense=%t spatial=%t spanner=%t shard=%t calendar=%t",
			!denseOff, !spatialOff, !spannerOff, !shardOff, !calendarOff)

		cfg := equivConfig(2, spannerOff)
		factory, _, err := NewInstrumented(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := equivScenario(2)
		s.DisableDenseTables = denseOff
		s.DisableSpatialIndex = spatialOff
		s.DisableSharding = shardOff
		s.DisableCalendarQueue = calendarOff
		if !shardOff {
			s.Parallelism = 4 // force workers; auto may resolve serial on 1-CPU hosts
		}
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			t.Fatal(err)
		}
		rep := w.Run()
		if first == nil {
			first, firstName = rep, name
			continue
		}
		if !reflect.DeepEqual(first, rep) {
			t.Fatalf("variant [%s] diverged from [%s]:\n  first: %+v\n  this:  %+v",
				name, firstName, first, rep)
		}
	}
}
