package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// GiantTierNodes is the node count at which the scale sweep switches to
// the reduced giant-world protocol: two modes (the full fast path vs
// the reference binary-heap event core), a single replication, a short
// fixed horizon, and a sampled heap-peak instead of allocation
// counting. Below it the three-mode NodeCountSweep applies; above it
// that protocol's 3×runs full-horizon executions would take hours and
// its alloc counters would say nothing about residency, which is the
// constraint that actually binds at 10k–100k nodes.
const GiantTierNodes = 5000

// giantHorizon and giantMsgs bound the giant tier's work: the point is
// wall clock per simulated second and resident memory at 10k–100k
// nodes, not delivery statistics, so the horizon is short and the
// traffic load nominal.
const (
	giantHorizon = 60.0
	giantMsgs    = 100
)

// GiantPoint is one giant-tier point: the same scenario run twice — the
// full fast path (calendar queue, aggregated beacons, compact tables)
// and the reference binary-heap event core (DisableCalendarQueue) —
// with wall clock and peak heap measured for each.
type GiantPoint struct {
	N        int
	Region   mobility.Region
	Msgs     int
	Delivery float64
	Events   uint64 // events dispatched (identical across modes)
	WallFast time.Duration
	WallHeap time.Duration
	PeakFast uint64 // peak sampled HeapAlloc bytes, fast path
	PeakHeap uint64 // peak sampled HeapAlloc bytes, heap event core
	// Identical reports that both runs produced byte-identical
	// end-to-end reports — the calendar queue is pure performance work.
	Identical bool
}

// QueueSpeedup returns heap-event-core wall clock over fast-path wall
// clock.
func (p GiantPoint) QueueSpeedup() float64 {
	if p.WallFast <= 0 {
		return 0
	}
	return float64(p.WallHeap) / float64(p.WallFast)
}

// GiantResult is the giant-tier sweep artifact.
type GiantResult struct {
	Points []GiantPoint
}

// MemPoint is one scenario's machine-readable memory digest inside the
// report `glrexp -memreport` writes.
type MemPoint struct {
	N             int    `json:"n"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	WallMs        int64  `json:"wall_ms"`
}

// MemReport digests the sweep for cmd/benchgate's -gate-mem-ceiling
// mode: scenario name → fast-path peak heap and wall clock, gated
// against the committed budgets in ci/mem_budget.json.
func (r *GiantResult) MemReport() map[string]MemPoint {
	out := make(map[string]MemPoint, len(r.Points))
	for _, p := range r.Points {
		out[fmt.Sprintf("scale-%d", p.N)] = MemPoint{
			N:             p.N,
			PeakHeapBytes: p.PeakFast,
			WallMs:        p.WallFast.Milliseconds(),
		}
	}
	return out
}

// sampleHeapPeak starts a ~20 Hz runtime.ReadMemStats sampler and
// returns a stop function yielding the peak HeapAlloc it observed
// (including one final sample at stop time). Sampling sees live heap
// plus not-yet-collected garbage — exactly the residency a host must
// provision for.
func sampleHeapPeak() (stop func() uint64) {
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		var m runtime.MemStats
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				runtime.ReadMemStats(&m)
				result <- max(peak, m.HeapAlloc)
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				peak = max(peak, m.HeapAlloc)
			}
		}
	}()
	return func() uint64 { close(done); return <-result }
}

// giantScenario is nodeCountScenario clamped to the giant tier's fixed
// short horizon and nominal traffic load.
func giantScenario(n int, seed int64) sim.Scenario {
	s := nodeCountScenario(n, giantMsgs, seed)
	s.SimTime = giantHorizon
	return s
}

// GiantSweep measures giant worlds (10k–100k nodes) at the paper's
// density: each size runs the same GLR scenario twice — the full fast
// path, then with the event core pinned to the reference binary heap
// (sim.Scenario.DisableCalendarQueue) — recording wall clock, the peak
// sampled heap, and the dispatched-event count, and asserting the two
// reports are byte-identical. One replication per size: the trend, not
// the confidence interval, is the artifact.
func GiantSweep(o Options, sizes []int) (*GiantResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &GiantResult{}
	for _, n := range sizes {
		if n < GiantTierNodes {
			return nil, fmt.Errorf("experiments: giant tier is for ≥ %d nodes, got %d", GiantTierNodes, n)
		}
		point := GiantPoint{N: n, Msgs: giantMsgs, Identical: true}
		var reports [2]metrics.Report
		for i, heapCore := range []bool{false, true} {
			s := giantScenario(n, o.BaseSeed)
			point.Region = s.Region
			s.DisableCalendarQueue = heapCore
			factory, err := core.New(core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			// Collect the previous mode's garbage so this mode's peak
			// measures its own residency, then sample across world
			// construction (where the tables allocate) and the run.
			runtime.GC()
			stopSampler := sampleHeapPeak()
			start := time.Now()
			w, err := sim.NewWorld(s, factory)
			if err != nil {
				stopSampler()
				return nil, err
			}
			rep, err := w.RunContext(ctx)
			elapsed := time.Since(start)
			peak := stopSampler()
			if err != nil {
				return nil, err
			}
			reports[i] = rep
			if heapCore {
				point.WallHeap, point.PeakHeap = elapsed, peak
			} else {
				point.WallFast, point.PeakFast = elapsed, peak
				point.Delivery = rep.DeliveryRatio
				point.Events = w.Scheduler().Processed()
			}
		}
		if reports[0] != reports[1] {
			point.Identical = false
		}
		res.Points = append(res.Points, point)
		o.progress("scale(giant): n=%d -> wall %v vs %v on the heap core (%.2fx), peak heap %s vs %s, %d events, identical=%v",
			n, point.WallFast.Round(time.Millisecond), point.WallHeap.Round(time.Millisecond),
			point.QueueSpeedup(), fmtBytes(point.PeakFast), fmtBytes(point.PeakHeap),
			point.Events, point.Identical)
	}
	return res, nil
}

// Render prints the giant-tier table.
func (r *GiantResult) Render() string {
	rows := make([][]string, len(r.Points))
	allIdentical := true
	for i, p := range r.Points {
		if !p.Identical {
			allIdentical = false
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0fx%.0f m", p.Region.W, p.Region.H),
			fmt.Sprintf("%.0f s", giantHorizon),
			fmt.Sprintf("%.2f", p.Delivery),
			fmt.Sprintf("%dM", p.Events/1e6),
			p.WallFast.Round(time.Millisecond).String(),
			p.WallHeap.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", p.QueueSpeedup()),
			fmtBytes(p.PeakFast),
			fmtBytes(p.PeakHeap),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   "Giant-world tier (fixed density, GLR, 1 run/point, fast path vs heap event core)",
		Headers: []string{"Nodes", "Region", "Horizon", "Delivery", "Events", "Wall", "Wall(heap)", "Spd-up", "Peak heap", "Peak(heap)"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\"Wall\" runs the full fast path — calendar event core, cell-aggregated\n" +
		"beacons, compact tables — and \"Wall(heap)\" the same scenario with the\n" +
		"event core pinned to the reference binary heap (DisableCalendarQueue).\n" +
		"Peak-heap columns are the maximum HeapAlloc a ~20 Hz\n" +
		"runtime.ReadMemStats sampler observed across world construction and\n" +
		"the run; `glrexp -memreport` emits the fast-path numbers for\n" +
		"benchgate's -gate-mem-ceiling CI gate.\n")
	if allIdentical {
		sb.WriteString("Calendar and heap event cores produced byte-identical reports at every point.\n")
	} else {
		sb.WriteString("WARNING: the calendar and heap event cores disagreed at some point —\n" +
			"this should never happen; see TestCalendarHeapDispatchEquality and\n" +
			"TestFullStackEquivalence.\n")
	}
	return sb.String()
}

// fmtBytes renders a byte count with a binary-scaled unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
