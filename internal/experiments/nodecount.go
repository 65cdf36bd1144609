package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/ldt"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
	"glr/internal/stats"
)

// NodeCountSizes is the default sweep: the paper's evaluation runs at
// tens of nodes; the sweep scales an order of magnitude beyond it.
var NodeCountSizes = []int{100, 250, 500, 1000}

// paperDensity is the paper's node density: 50 nodes in 1500 × 300 m.
const paperDensity = 50.0 / (1500 * 300)

// NodeCountPoint is one sweep point: the same scenario run two ways —
// the fast path (shared spanner cache) and the from-scratch spanner
// reference (core.Config.DisableSpannerCache) — with wall-clock and
// spanner-construction time measured for each and heap-allocation
// pressure for the fast path. All runs use the grid-indexed medium; the
// naive medium keeps its own benchmarks in internal/mac.
type NodeCountPoint struct {
	N               int
	Region          mobility.Region
	Delivery        stats.MeanCI  // fast-path runs
	DeliveryScratch stats.MeanCI  // from-scratch spanner runs
	WallCached      time.Duration // mean per run
	WallScratch     time.Duration
	SpannerCached   time.Duration // mean spanner-construction time per run
	SpannerScratch  time.Duration
	Phases          sim.PhaseProf // fast-path runs: mean per-phase wall clock
	TriHitRate      float64       // fast-path runs: witness-triangulation reuse
	AllocsDense     uint64        // mean heap allocations per fast-path run
	GCDense         uint32        // mean GC cycles per fast-path run
	Identical       bool          // both reports matched exactly at every seed
}

// SpannerSpeedup returns from-scratch spanner-construction time over
// cached.
func (p NodeCountPoint) SpannerSpeedup() float64 {
	if p.SpannerCached <= 0 {
		return 0
	}
	return float64(p.SpannerScratch) / float64(p.SpannerCached)
}

// WallSpeedup returns from-scratch wall-clock over cached wall-clock.
func (p NodeCountPoint) WallSpeedup() float64 {
	if p.WallCached <= 0 {
		return 0
	}
	return float64(p.WallScratch) / float64(p.WallCached)
}

// NodeCountResult is the node-count scaling sweep artifact.
type NodeCountResult struct {
	Points []NodeCountPoint
	Runs   int
	msgs   []int // messages per point, aligned with Points
}

// nodeCountScenario builds the sweep scenario for n nodes: the paper's
// density and mobility at 100 m range, region grown with n (5:1 aspect
// like the paper's 1500 × 300), uniform random traffic proportional to
// n, and a horizon long enough for delivery.
func nodeCountScenario(n, msgs int, seed int64) sim.Scenario {
	h := math.Sqrt(float64(n) / paperDensity / 5)
	s := sim.DefaultScenario(100)
	s.Name = fmt.Sprintf("scale-%d", n)
	s.N = n
	s.Seed = seed
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.Traffic = sim.UniformTraffic(n, msgs, 2.0, seed*977+5)
	s.SimTime = float64(msgs)/2.0 + 240
	return s
}

// instrRun is one instrumented run's measurements: the report, the
// shared-cache stats, the heap Mallocs / GC-cycle deltas across the run
// (runtime.ReadMemStats), and — when profiled — the per-phase wall
// clock.
type instrRun struct {
	rep     metrics.Report
	spanner ldt.SpannerStats
	mallocs uint64
	gc      uint32
	phases  sim.PhaseProf
}

// executeInstrumented runs one GLR scenario with spanner and allocation
// instrumentation; profile additionally turns on per-phase wall-clock
// attribution (which never changes the report — see sim.PhaseProf).
func executeInstrumented(ctx context.Context, s sim.Scenario, cfg core.Config, profile bool) (instrRun, error) {
	factory, maint, err := core.NewInstrumented(cfg)
	if err != nil {
		return instrRun{}, err
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		return instrRun{}, err
	}
	if profile {
		w.EnablePhaseProfile()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := w.RunContext(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		return instrRun{}, err
	}
	return instrRun{
		rep:     rep,
		spanner: maint.Stats(),
		mallocs: after.Mallocs - before.Mallocs,
		gc:      after.NumGC - before.NumGC,
		phases:  w.PhaseProfile(),
	}, nil
}

// NodeCountSweep measures how the simulator scales with node count at
// fixed density. Each seed runs the same scenario two ways:
//
//   - fast: spanner cache, with per-phase profiling;
//   - scratch: core.Config.DisableSpannerCache (from-scratch spanner).
//
// It reports delivery, wall-clock and spanner-construction time fast vs
// scratch, the fast run's heap-allocation pressure and per-phase wall
// clock — and asserts both reports are identical.
// sizes nil means NodeCountSizes.
// Replications are run sequentially (never in parallel) so the
// wall-clock comparison is not distorted by CPU contention; o.Runs is
// capped at 3 — even when overridden via `glrexp -runs` — because the
// point is the timing trend, not tight confidence intervals.
func NodeCountSweep(o Options, sizes []int) (*NodeCountResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if sizes == nil {
		sizes = NodeCountSizes
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	runs := min(o.Runs, 3)
	res := &NodeCountResult{Runs: runs}

	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: node count %d must be ≥ 2", n)
		}
		msgs := o.messages(n)
		point := NodeCountPoint{N: n, Identical: true}
		cached := make([]float64, runs)
		scratch := make([]float64, runs)
		var hitStats ldt.SpannerStats
		var allocsDense uint64
		var gcDense uint32
		for r := 0; r < runs; r++ {
			seed := o.BaseSeed + int64(r)
			var reports [2]metrics.Report
			for i, fromScratch := range []bool{false, true} {
				s := nodeCountScenario(n, msgs, seed)
				point.Region = s.Region
				cfg := core.DefaultConfig()
				cfg.DisableSpannerCache = fromScratch
				start := time.Now()
				ir, err := executeInstrumented(ctx, s, cfg, !fromScratch)
				elapsed := time.Since(start)
				if err != nil {
					return nil, err
				}
				reports[i] = ir.rep
				if fromScratch {
					scratch[r] = ir.rep.DeliveryRatio
					point.WallScratch += elapsed
					point.SpannerScratch += ir.spanner.BuildTime
				} else {
					cached[r] = ir.rep.DeliveryRatio
					point.WallCached += elapsed
					point.SpannerCached += ir.spanner.BuildTime
					point.Phases.Beacon += ir.phases.Beacon
					point.Phases.Mobility += ir.phases.Mobility
					point.Phases.Rx += ir.phases.Rx
					point.Phases.AntiEntropy += ir.phases.AntiEntropy
					hitStats.Add(ir.spanner)
					allocsDense += ir.mallocs
					gcDense += ir.gc
				}
			}
			if reports[0] != reports[1] {
				point.Identical = false
			}
		}
		point.Delivery = stats.ConfidenceInterval(cached, o.Confidence)
		point.DeliveryScratch = stats.ConfidenceInterval(scratch, o.Confidence)
		point.WallCached /= time.Duration(runs)
		point.WallScratch /= time.Duration(runs)
		point.SpannerCached /= time.Duration(runs)
		point.SpannerScratch /= time.Duration(runs)
		point.Phases.Beacon /= time.Duration(runs)
		point.Phases.Mobility /= time.Duration(runs)
		point.Phases.Rx /= time.Duration(runs)
		point.Phases.AntiEntropy /= time.Duration(runs)
		point.TriHitRate = hitStats.TriHitRate()
		point.AllocsDense = allocsDense / uint64(runs)
		point.GCDense = gcDense / uint32(runs)
		res.Points = append(res.Points, point)
		res.msgs = append(res.msgs, msgs)
		o.progress("scale: n=%d -> delivery %.2f, spanner %v vs %v (%.1fx, hit %.0f%%), wall %v vs %v, allocs %dM",
			n, point.Delivery.Mean,
			point.SpannerCached.Round(time.Millisecond), point.SpannerScratch.Round(time.Millisecond),
			point.SpannerSpeedup(), 100*point.TriHitRate,
			point.WallCached.Round(time.Millisecond), point.WallScratch.Round(time.Millisecond),
			point.AllocsDense/1e6)
	}
	return res, nil
}

// Render prints the sweep table.
func (r *NodeCountResult) Render() string {
	rows := make([][]string, len(r.Points))
	allIdentical := true
	for i, p := range r.Points {
		if !p.Identical {
			allIdentical = false
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0fx%.0f m", p.Region.W, p.Region.H),
			fmt.Sprintf("%d", r.msgs[i]),
			fmt.Sprintf("%.2f±%.2f", p.Delivery.Mean, p.Delivery.HalfWidth),
			p.SpannerCached.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", p.SpannerSpeedup()),
			fmt.Sprintf("%.0f%%", 100*p.TriHitRate),
			p.WallCached.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fM", float64(p.AllocsDense)/1e6),
			fmt.Sprintf("%d", p.GCDense),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Node-count scaling sweep (fixed density, GLR, %d run(s)/point)", r.Runs),
		Headers: []string{"Nodes", "Region", "Msgs", "Delivery", "Spanner", "Spd-up", "Tri hits", "Wall", "Allocs", "GC"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\nPer-phase wall clock (share of the fast run's wall):\n")
	for _, p := range r.Points {
		pct := func(d time.Duration) float64 {
			if p.WallCached <= 0 {
				return 0
			}
			return 100 * float64(d) / float64(p.WallCached)
		}
		sb.WriteString(fmt.Sprintf(
			"  n=%-5d beacon %5.1f%%  mobility %5.1f%%  rx %5.1f%%  anti-entropy %5.1f%%  spanner %5.1f%%\n",
			p.N, pct(p.Phases.Beacon), pct(p.Phases.Mobility), pct(p.Phases.Rx),
			pct(p.Phases.AntiEntropy), pct(p.SpannerCached)))
	}
	sb.WriteString("\nSpanner columns time the GLR routing loop's local-graph construction\n" +
		"through the shared ldt.Maintainer; \"Spd-up\" is the from-scratch reference\n" +
		"(DisableSpannerCache) over it. \"Wall\" is the fast path, profiled per\n" +
		"phase. \"Allocs\" counts the fast run's heap allocations (Mallocs) and\n" +
		"\"GC\" its garbage-collection cycles.\n")
	if allIdentical {
		sb.WriteString("Both spanner paths produced identical end-to-end reports at every point.\n")
	} else {
		sb.WriteString("WARNING: the fast and from-scratch-spanner runs disagreed at some\n" +
			"point — this should never happen; see the equivalence tests in\n" +
			"internal/core.\n")
	}
	return sb.String()
}

// SpannerSpeedupAtLargestN returns the spanner-construction speedup at
// the biggest sweep point (the headline the ROADMAP tracks).
func (r *NodeCountResult) SpannerSpeedupAtLargestN() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	return r.Points[len(r.Points)-1].SpannerSpeedup()
}
