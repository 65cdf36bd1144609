package main

import (
	"context"
	"fmt"
	"runtime"

	"glr"
	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/fault"
	"glr/internal/ldt"
	"glr/internal/metrics"
	"glr/internal/shard"
	"glr/internal/sim"
)

// workload is one named benchmark input: a scenario family, the
// protocols it runs, and how many consecutive seeds one iteration
// covers. An iteration is the unit the closed loop repeats; it steps
// every world of the workload to its horizon.
type workload struct {
	name    string
	nodes   int
	rangeM  float64
	width   float64
	height  float64
	simTime float64
	static  bool
	traffic glr.Workload
	faults  []glr.Fault
	protos  []glr.Protocol
	// compare runs the iteration through glr.Runner.Compare over
	// `runs` consecutive seeds; otherwise the iteration is one world of
	// protos[0] on the default (automatic) engine.
	compare bool
	runs    int
}

// seedCycle is the number of distinct scenario-seed sets a run cycles
// through: iteration i of a run with seed n uses set i mod seedCycle, so
// a run's medians average over several worlds while every iteration
// still has a recorded reference.
const seedCycle = 8

// denseFaults is the composed fault set of the repository's
// BenchmarkWorldStepFaults: churn, link blackouts, GPS noise and
// Byzantine relays.
var denseFaults = []glr.Fault{
	{Kind: glr.FaultChurn, Rate: 0.01, Duration: 2},
	{Kind: glr.FaultLinkBlackout, Rate: 0.2, Period: 5},
	{Kind: glr.FaultGPSNoise, Sigma: 30},
	{Kind: glr.FaultByzantine, Fraction: 0.1},
}

// dense returns the 1000-node world of the repository's WorldStep
// benchmarks: 3000×1000 m at 100 m range, uniform traffic.
func dense(name string, proto glr.Protocol) workload {
	return workload{
		name:  name,
		nodes: 1000, rangeM: 100, width: 3000, height: 1000, simTime: 10,
		traffic: glr.UniformWorkload{Messages: 150, Rate: 20},
		protos:  []glr.Protocol{proto},
	}
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = func() []workload {
	// The paper's Table-1 strip (50 nodes, 1500×300 m, 100 m range,
	// round-robin traffic), GLR against epidemic through Runner.Compare:
	// replications run serially side by side, so event dispatch, beacon
	// handling and epidemic anti-entropy do the work.
	paper := workload{
		name:  "paper_compare",
		nodes: 50, rangeM: 100, width: 1500, height: 300, simTime: 1200,
		traffic: glr.PaperWorkload{Messages: 200},
		protos:  []glr.Protocol{glr.GLR, glr.Epidemic},
		compare: true, runs: 2,
	}
	// 1000 mobile GLR nodes on the sharded engine: spanner construction,
	// reception and every parallel plane are busy, and the whole-query
	// spanner cache never hits.
	mobile := dense("dense_glr_mobile", glr.GLR)
	// The same world under epidemic with churn, blackouts, GPS noise and
	// Byzantine nodes: unicast contention, fault-gated reception and
	// churn restarts, with no spanner work.
	faults := dense("dense_epidemic_faults", glr.Epidemic)
	faults.faults = denseFaults
	// The GLR world with static placement: the only workload where the
	// spanner caches and speculation pay, and mobility has nothing to move.
	static := dense("dense_glr_static", glr.GLR)
	static.static = true
	return []workload{paper, mobile, faults, static}
}()

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// baseSeed is the first scenario seed of iteration iter in a run with
// the given benchmark seed.
func (w workload) baseSeed(seed int64, iter int) int64 {
	return seed*1000 + int64(iter%seedCycle)*int64(w.replications())
}

// replications is the number of seeds per protocol in one iteration.
func (w workload) replications() int {
	if w.compare {
		return w.runs
	}
	return 1
}

// world names one simulated world of an iteration.
type world struct {
	proto glr.Protocol
	seed  int64
}

// key is the world's reference-fingerprint key.
func (w workload) key(wd world) string {
	return fmt.Sprintf("%s/%s/%d", w.name, wd.proto, wd.seed)
}

// worlds lists the worlds of the iteration starting at base, in the
// order Runner.Compare reports them.
func (w workload) worlds(base int64) []world {
	var out []world
	for _, p := range w.protos {
		for r := 0; r < w.replications(); r++ {
			out = append(out, world{proto: p, seed: base + int64(r)})
		}
	}
	return out
}

// nodeSeconds is the simulated node-seconds one iteration completes.
func (w workload) nodeSeconds() float64 {
	return float64(w.nodes) * w.simTime * float64(len(w.protos)*w.replications())
}

// options is the public scenario description of one world.
func (w workload) options(proto glr.Protocol, seed int64) []glr.Option {
	opts := []glr.Option{
		glr.WithProtocol(proto),
		glr.WithNodes(w.nodes),
		glr.WithRange(w.rangeM),
		glr.WithRegion(w.width, w.height),
		glr.WithSimTime(w.simTime),
		glr.WithWorkload(w.traffic),
		glr.WithSeed(seed),
	}
	if w.static {
		opts = append(opts, glr.WithMobility(glr.Static{}))
	}
	if len(w.faults) > 0 {
		opts = append(opts, glr.WithFaults(w.faults...))
	}
	return opts
}

// parallelism is the shard-pool request of one world: automatic for a
// single run, and for Compare the per-replication budget Runner grants
// (GOMAXPROCS divided among the concurrent replications).
func (w workload) parallelism() int {
	if !w.compare {
		return 0
	}
	procs := runtime.GOMAXPROCS(0)
	conc := runtime.NumCPU()
	if jobs := len(w.protos) * w.runs; jobs < conc {
		conc = jobs
	}
	if b := procs / conc; b > 1 {
		return b
	}
	return 1
}

// thresholds is the fork-threshold set a world of this workload runs
// with, resolved the way sim.NewWorld resolves it.
func (w workload) thresholds() shard.Thresholds {
	p := w.parallelism()
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return shard.Calibrate(p)
}

// compiled is one world lowered onto the simulator: the scenario, the
// protocol factory, and the GLR spanner cache (nil under epidemic).
type compiled struct {
	scn     sim.Scenario
	factory sim.ProtocolFactory
	maint   *ldt.Maintainer
}

// compile lowers one world onto internal/sim the way glr.Scenario does
// (the package tests pin the two paths to identical reports). The
// public scenario is built first, as a user's run would, so its
// validation is part of the measured set-up.
func (w workload) compile(wd world) (compiled, error) {
	if _, err := glr.NewScenario(w.options(wd.proto, wd.seed)...); err != nil {
		return compiled{}, err
	}
	scn := sim.DefaultScenario(w.rangeM)
	scn.Seed = wd.seed
	scn.N = w.nodes
	scn.Region.W, scn.Region.H = w.width, w.height
	scn.SimTime = w.simTime
	scn.Parallelism = w.parallelism()
	if w.static {
		scn.Mobility = sim.MobilityStatic
	}
	msgs, err := w.traffic.Schedule(w.nodes, wd.seed)
	if err != nil {
		return compiled{}, err
	}
	for _, m := range msgs {
		scn.Traffic = append(scn.Traffic, sim.TrafficItem{Src: m.Src, Dst: m.Dst, At: m.At})
	}
	for _, f := range w.faults {
		scn.Faults = append(scn.Faults, fault.Spec{
			Kind: fault.Kind(f.Kind), Rate: f.Rate, Period: f.Period, Duration: f.Duration,
			Start: f.Start, End: f.End, X: f.X, Y: f.Y, W: f.W, H: f.H,
			Sigma: f.Sigma, Fraction: f.Fraction,
		})
	}
	c := compiled{scn: scn}
	switch wd.proto {
	case glr.GLR:
		c.factory, c.maint, err = core.NewInstrumented(core.DefaultConfig())
	case glr.Epidemic:
		c.factory, err = epidemic.New(epidemic.DefaultConfig())
	default:
		err = fmt.Errorf("unknown protocol %q", wd.proto)
	}
	return c, err
}

// runCompare executes one paper_compare iteration the way users do:
// glr.Runner over every CPU, GLR against epidemic over consecutive
// seeds. Results come back in worlds() order.
func (w workload) runCompare(ctx context.Context, base int64) ([]glr.Result, error) {
	sc, err := glr.NewScenario(w.options(w.protos[0], base)...)
	if err != nil {
		return nil, err
	}
	cmp, err := glr.Runner{Workers: runtime.NumCPU()}.Compare(ctx, sc, w.runs)
	if err != nil {
		return nil, err
	}
	return append(append([]glr.Result(nil), cmp.GLR.Results...), cmp.Epidemic.Results...), nil
}

// result lowers a simulator report onto the public result type, the
// one glr.Scenario.Run returns.
func result(rep metrics.Report) glr.Result {
	return glr.Result{
		Generated:      rep.Generated,
		Delivered:      rep.Delivered,
		DeliveryRatio:  rep.DeliveryRatio,
		AvgLatency:     rep.AvgLatency,
		AvgHops:        rep.AvgHops,
		MaxPeakStorage: rep.MaxPeakStorage,
		AvgPeakStorage: rep.AvgPeakStorage,
		Duplicates:     rep.Duplicates,
		ControlFrames:  rep.ControlFrames,
		DataFrames:     rep.DataFrames,
		Acks:           rep.Acks,
	}
}
