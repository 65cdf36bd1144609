package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glr/internal/fault"
	"glr/internal/ldt"
	"glr/internal/sim"
)

// equivScenario builds a randomized mobile scenario for the cache
// equivalence property: paper-style density and mobility at a small
// scale, random size, range, and traffic.
func equivScenario(trial int) sim.Scenario {
	rng := rand.New(rand.NewSource(int64(trial)*104729 + 11))
	n := 20 + rng.Intn(20)
	s := sim.DefaultScenario(80 + rng.Float64()*120)
	s.Name = fmt.Sprintf("spanner-equiv-%d", trial)
	s.Seed = int64(trial)*31 + 5
	s.N = n
	s.Region.W = 600 + rng.Float64()*600
	s.Region.H = 200 + rng.Float64()*200
	s.SimTime = 60 + rng.Float64()*30
	s.Traffic = sim.UniformTraffic(n, 10+rng.Intn(15), 1.0, int64(trial)*977+1)
	return s
}

// equivConfig randomizes the spanner variant so Gabriel and UDG ablations
// go through the cache equivalence too.
func equivConfig(trial int, disableCache bool) Config {
	cfg := DefaultConfig()
	cfg.Spanner = SpannerKind(trial % 3)
	cfg.DisableSpannerCache = disableCache
	return cfg
}

// TestSpannerCacheRunEquivalence: across ≥20 randomized mobile scenarios,
// a run with the shared spanner cache must produce *identical* end-to-end
// results — delivery, latency, hops, storage, frame counts — to the same
// run on the from-scratch reference path. Any divergence means the cache
// (or the mesh triangulator under it) changed a routing decision. The
// "faulted" case runs every disruption model at once — churn with state
// loss, link and region blackouts, GPS noise, Byzantine nodes — so
// crash-time resets, fault-gated reception and falsified beacon
// positions all flow through both spanner paths.
func TestSpannerCacheRunEquivalence(t *testing.T) {
	const trials = 21
	delivered := 0
	check := func(t *testing.T, s sim.Scenario, trial int) (faultDrops uint64) {
		var reports [2]interface{}
		for i, disable := range []bool{false, true} {
			factory, maint, err := NewInstrumented(equivConfig(trial, disable))
			if err != nil {
				t.Fatal(err)
			}
			w, err := sim.NewWorld(s, factory)
			if err != nil {
				t.Fatal(err)
			}
			rep := w.Run()
			reports[i] = rep
			delivered += rep.Delivered
			faultDrops = w.Medium().Stats().FaultDrops
			st := maint.Stats()
			if st.Queries == 0 {
				t.Fatal("no spanner queries recorded")
			}
			if disable && (st.TriBuilds != 0 || st.TriHits != 0 || st.ResultHits != 0) {
				t.Fatalf("from-scratch run used the cache: %+v", st)
			}
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Fatalf("cached run diverged from from-scratch:\n  cached: %+v\n  scratch: %+v",
				reports[0], reports[1])
		}
		return faultDrops
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			check(t, equivScenario(trial), trial)
		})
	}
	t.Run("faulted", func(t *testing.T) {
		s := equivScenario(7)
		s.Faults = []fault.Spec{
			{Kind: fault.Churn, Rate: 0.01, Duration: 15},
			{Kind: fault.LinkBlackout, Rate: 0.2, Period: 10},
			{Kind: fault.GPSNoise, Sigma: 30},
			{Kind: fault.Byzantine, Fraction: 0.2},
			{Kind: fault.RegionBlackout, X: 100, Y: 50, W: 300, H: 100, Start: 20, End: 50},
		}
		if drops := check(t, s, 7); drops == 0 {
			t.Fatal("no reception was fault-gated; the faulted case is vacuous")
		}
	})
	if delivered == 0 {
		t.Fatal("equivalence suite delivered nothing; scenarios too hostile to be meaningful")
	}
}

// TestSpannerCachePerNodeEquivalence freezes running worlds at several
// checkpoints and compares, node by node, the cached accepted-neighbor
// set against a from-scratch reference construction over the same
// neighbor-table state.
func TestSpannerCachePerNodeEquivalence(t *testing.T) {
	compared := 0
	for trial := 0; trial < 6; trial++ {
		factory, _, err := NewInstrumented(equivConfig(0, false)) // LDTG
		if err != nil {
			t.Fatal(err)
		}
		var instances []*GLR
		capture := func(n *sim.Node) sim.Protocol {
			p := factory(n)
			instances = append(instances, p.(*GLR))
			return p
		}
		w, err := sim.NewWorld(equivScenario(trial), capture)
		if err != nil {
			t.Fatal(err)
		}
		for _, until := range []float64{8, 17, 33} {
			w.Scheduler().Run(until)
			for _, g := range instances {
				view, nbrIDs, _ := g.localSpanner()
				if view == nil {
					continue
				}
				local, err := view.LDTGNeighborsRef(g.cfg.K)
				if err != nil {
					t.Fatal(err)
				}
				var want []int
				for _, li := range local {
					want = append(want, view.IDs[li])
				}
				got := append([]int(nil), nbrIDs...)
				sort.Ints(got)
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d t=%.0f node %d: cached %v != from-scratch %v",
						trial, until, g.n.ID(), got, want)
				}
				compared++
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d per-node comparisons ran; scenarios degenerate", compared)
	}
}

// TestDisableSpannerCacheConfig exercises the flag end to end: both modes
// must run and the cached mode must actually reuse state in a static
// scenario.
func TestDisableSpannerCacheConfig(t *testing.T) {
	s := sim.DefaultScenario(120)
	s.N = 25
	s.Mobility = sim.MobilityStatic
	s.SimTime = 30
	s.Traffic = sim.UniformTraffic(s.N, 8, 1.0, 3)

	factory, maint, err := NewInstrumented(Config{})
	if err == nil {
		t.Fatal("invalid zero config accepted")
	}
	_ = factory
	_ = maint

	cfg := DefaultConfig()
	factory, maint, err = NewInstrumented(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewWorld(s, factory); err != nil {
		t.Fatal(err)
	}
	// Static nodes: after the first check interval every view repeats, so
	// the result cache must serve the steady state.
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	st := maint.Stats()
	if st.ResultHits == 0 {
		t.Errorf("static scenario produced no result-cache hits: %+v", st)
	}
	if maint.Disabled() {
		t.Error("default config should enable the cache")
	}

	cfg.DisableSpannerCache = true
	_, maint, err = NewInstrumented(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !maint.Disabled() {
		t.Error("DisableSpannerCache not honored")
	}
}

// stats sanity for ldt.Maintainer wiring: the shared cache must see
// queries from many nodes of one world.
func TestMaintainerSharedAcrossNodes(t *testing.T) {
	factory, maint, err := NewInstrumented(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := equivScenario(3)
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	w.Scheduler().Run(12)
	st := maint.Stats()
	if st.Queries < uint64(s.N) {
		t.Errorf("shared maintainer saw %d queries for %d nodes", st.Queries, s.N)
	}
	if st.TriBuilds+st.TriHits == 0 {
		t.Error("no witness triangulations recorded")
	}
	var _ ldt.SpannerStats = st
}
