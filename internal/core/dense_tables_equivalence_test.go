package core

import (
	"fmt"
	"reflect"
	"testing"

	"glr/internal/sim"
)

// TestDenseTablesRunEquivalence: across randomized mobile scenarios, a
// run on the dense slice-backed neighbor/location tables must produce
// *identical* end-to-end results — delivery, latency, hops, storage,
// frame counts — to the same run on the map-backed reference path
// (sim.Scenario.DisableDenseTables). Any divergence means the dense
// state plane changed an observation order or a routing decision.
func TestDenseTablesRunEquivalence(t *testing.T) {
	const trials = 15
	delivered := 0
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			var reports [2]interface{}
			for i, disable := range []bool{false, true} {
				factory, _, err := NewInstrumented(equivConfig(trial, false))
				if err != nil {
					t.Fatal(err)
				}
				s := equivScenario(trial)
				s.DisableDenseTables = disable
				w, err := sim.NewWorld(s, factory)
				if err != nil {
					t.Fatal(err)
				}
				rep := w.Run()
				reports[i] = rep
				delivered += rep.Delivered
			}
			if !reflect.DeepEqual(reports[0], reports[1]) {
				t.Fatalf("dense-table run diverged from map-backed:\n  dense: %+v\n  map:   %+v",
					reports[0], reports[1])
			}
		})
	}
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
}

// TestDenseTablesFullStackEquivalence crosses the dense-table flag with
// the spatial-index and spanner-cache flags: all three escape hatches
// must agree pairwise with the all-fast default, so any combination of
// the reference paths reproduces the optimized stack bit for bit.
func TestDenseTablesFullStackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack flag cross is slow")
	}
	base := func() sim.Scenario { return equivScenario(2) }
	type variant struct {
		name       string
		denseOff   bool
		spatialOff bool
		spannerOff bool
	}
	variants := []variant{
		{name: "all-fast"},
		{name: "map-tables", denseOff: true},
		{name: "naive-medium", spatialOff: true},
		{name: "scratch-spanner", spannerOff: true},
		{name: "all-reference", denseOff: true, spatialOff: true, spannerOff: true},
	}
	var first interface{}
	for _, v := range variants {
		cfg := equivConfig(2, v.spannerOff)
		factory, _, err := NewInstrumented(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := base()
		s.DisableDenseTables = v.denseOff
		s.DisableSpatialIndex = v.spatialOff
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			t.Fatal(err)
		}
		rep := w.Run()
		if first == nil {
			first = rep
			continue
		}
		if !reflect.DeepEqual(first, rep) {
			t.Fatalf("variant %q diverged from all-fast:\n  fast: %+v\n  %s: %+v",
				v.name, first, v.name, rep)
		}
	}
}

// TestFullStackEquivalence crosses every engine escape hatch — dense
// tables, spatial index, spanner cache, calendar queue — in all sixteen
// combinations. Every combination must reproduce the all-fast run bit
// for bit, so any mix of reference paths is interchangeable.
func TestFullStackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack flag cross is slow")
	}
	var first interface{}
	var firstName string
	for mask := 0; mask < 16; mask++ {
		denseOff := mask&1 != 0
		spatialOff := mask&2 != 0
		spannerOff := mask&4 != 0
		calendarOff := mask&8 != 0
		name := fmt.Sprintf("dense=%t spatial=%t spanner=%t calendar=%t",
			!denseOff, !spatialOff, !spannerOff, !calendarOff)

		factory, _, err := NewInstrumented(equivConfig(2, spannerOff))
		if err != nil {
			t.Fatal(err)
		}
		s := equivScenario(2)
		s.DisableDenseTables = denseOff
		s.DisableSpatialIndex = spatialOff
		s.DisableCalendarQueue = calendarOff
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
