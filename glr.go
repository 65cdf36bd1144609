// Package glr is a Go reproduction of "A Geometric Routing Protocol in
// Disruption Tolerant Network" (Du, Kranakis, Nayak; ICDCS Workshops
// 2009): the GLR protocol — greedy geographic routing over a localized
// Delaunay triangulation spanner with controlled multi-copy flooding
// along MaxDSTD/MinDSTD/MidDSTD trees, store-and-forward, face routing,
// location diffusion and custody transfer — together with the epidemic
// routing baseline, a discrete-event wireless network simulator (CSMA/CA
// MAC, two-ray ground propagation, random waypoint mobility), and a
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start — describe a scenario with functional options and run it:
//
//	sc, err := glr.NewScenario(
//		glr.WithRange(100),          // metres (paper: 50–250)
//		glr.WithWorkload(glr.PaperWorkload{Messages: 200}),
//		glr.WithSeed(42),
//	)
//	res, err := sc.Run()
//	fmt.Println(res)
//
// Everything is pluggable. Mobility models (the paper's random
// waypoint, static placement, a reflecting random walk, scripted
// traces):
//
//	sc, err := glr.NewScenario(
//		glr.WithMobility(glr.RandomWalk{MaxSpeed: 10, LegTime: 30}),
//	)
//
// Traffic workloads (the paper's round-robin pattern, uniform random
// pairs, Poisson arrivals, hotspot sinks, explicit schedules — or any
// type implementing Workload):
//
//	sc, err := glr.NewScenario(
//		glr.WithWorkload(glr.PoissonWorkload{Messages: 500, Rate: 2}),
//	)
//
// Observe a run in flight instead of waiting for the final digest —
// per-event callbacks plus a periodic time series of delivery, latency,
// buffer occupancy, and control overhead:
//
//	sc, err := glr.NewScenario(glr.WithObserver(&glr.Observer{
//		OnDelivered: func(e glr.DeliveryEvent) { fmt.Println("delivered", e.Src, e.Seq, e.Latency()) },
//		SampleEvery: 60,
//		OnSample:    func(s glr.Sample) { fmt.Printf("t=%gs ratio=%.2f buffered=%d\n", s.Time, s.DeliveryRatio, s.BufferTotal) },
//	}))
//
// Replicate across seeds — and compare protocols — on all cores, with
// mean ± confidence-interval aggregation and context cancellation:
//
//	var r glr.Runner // zero value: all CPUs, 90% confidence
//	cmp, err := r.Compare(ctx, sc, 10)
//	fmt.Println(cmp.GLR.DeliveryRatio, cmp.Epidemic.DeliveryRatio)
//
// Regenerate a paper artifact:
//
//	out, err := glr.RunExperiment("fig7", glr.Quick)
//	fmt.Println(out)
//
// The flat Config / Run / Compare surface predating the builder remains
// as a thin adapter and produces byte-identical results; new code
// should prefer NewScenario.
//
// # Performance & scaling
//
// The wireless medium resolves receptions, carrier sensing, and
// interference through a uniform-grid spatial index (internal/spatial)
// whose cells match the relevant query radii, so the per-airing cost
// depends on the sender's neighborhood, not on the network size; unicast
// frames resolve against their destination in O(1). Radio cells are
// refreshed lazily as positions are observed and in bulk once per beacon
// interval, with index queries widened by a slack covering the possible
// drift in between, which keeps grid resolution exactly equivalent to a
// full scan (a property test in internal/mac asserts identical delivered
// frame sets and MAC statistics across randomized static and mobile
// topologies). The naive O(n²) path stays inside internal/mac
// (mac.Config.DisableSpatialIndex) as that property's reference and as a
// benchmark baseline: BenchmarkMediumBroadcast{Naive,Grid} compare the
// two on a 1000-radio medium.
//
// The GLR routing loop's spanner construction — the per-check k-LDTG a
// node derives from beacon knowledge — runs through a persistent cache
// (ldt.Maintainer, one shared per world) instead of re-triangulating
// every witness neighborhood from scratch each check interval:
//
//   - Witness triangulations and whole accepted-neighbor results are
//     keyed by exact signatures (member ids plus IEEE-754 position bits,
//     sorted by id), so permuted views, repeated checks, and overlapping
//     neighborhoods of different nodes all reuse one entry, and any
//     movement or membership change misses rather than returning stale
//     state. Correctness therefore never depends on invalidation;
//     invalidation is hygiene: beacons feed Maintainer.Observe with the
//     freshest position per node, and a periodic sweep evicts entries
//     built from superseded coordinates once they stop being queried,
//     plus anything idle past a short TTL.
//   - Cold rebuilds use an adjacency-based Bowyer–Watson triangulator
//     (geom.Triangulator: neighbor-linked mesh, walk-based point
//     location, BFS cavity search, ghost triangles for the hull,
//     reusable scratch buffers), which replaces the reference
//     implementation's O(triangles) scans per insertion and cuts a
//     256-point construction from ~15 ms to ~0.3 ms with ~60× fewer
//     allocations. The reference construction is kept as
//     geom.DelaunayRef and is equivalence-tested against the mesh.
//   - The Gabriel and UDG ablation spanners ride the same result cache.
//   - The from-scratch reference path stays inside internal/core
//     (core.Config.DisableSpannerCache); equivalence tests there assert
//     that cached and from-scratch runs produce identical per-node
//     accepted-neighbor sets and identical end-to-end reports across
//     randomized mobile and faulted scenarios.
//
// The per-node state plane — the neighbor and location tables every DTN
// node refreshes on every received beacon — is dense and generation-
// stamped rather than map-based: rows live in per-world id-indexed
// arrays (dtn.NewDenseNeighborTable/NewDenseLocationTable), a row is
// live iff its stamp matches the table generation (O(1) upsert, O(1)
// whole-table reset), and a sorted live-id list keeps outputs in
// ascending id order. The hot tick path is allocation-free in steady
// state:
//
//   - Observe copies each beacon's advertised list into row-owned
//     backing arrays reused across refreshes, so beacon payloads (frame,
//     payload box, and neighbor buffer together) recycle on world-level
//     free lists the moment the MAC resolves the broadcast; generic
//     protocol frames and GLR data-frame boxes pool the same way.
//   - Snapshot-style queries have appending variants (AppendAdvertised,
//     AppendTwoHop) writing into caller-reused scratch, with generation-
//     stamped marks replacing the per-call dedup map; the GLR routing
//     loop feeds its spanner construction and per-message candidate
//     sort entirely from per-instance scratch buffers.
//   - The medium resolves receptions in per-tick batches: airings whose
//     ends coincide are resolved by one pass that prunes the FIFO once
//     and gathers a shared interferer-candidate set over the affected
//     grid cells (epoch-stamped dedup), with closure-free NearIDs
//     queries into reused buffers; per-radio backoff/defer retries reuse
//     one pre-allocated handler.
//   - A map-based reference neighbor table lives in internal/dtn's
//     tests; property tests drive the dense and compact backends against
//     it through randomized churn — expiry, re-appearance, id reuse,
//     relabeling — asserting identical outputs.
//
// Every run steps on one engine, on one goroutine; multi-core hosts are
// used across runs instead. Runner{Workers: n} spreads replications over
// n workers (0 = GOMAXPROCS), and results are identical at every worker
// count, seed for seed:
//
//	cmp, err := glr.Runner{Workers: 4}.Compare(ctx, sc, 8) // 4 runs at a time
//
// Runs do not shard internally: per-event batches follow local node
// density, not world size, and stay too small to pay for a fork on the
// hosts measured (see docs/ARCHITECTURE.md). The reference
// implementations the engine was proven against live in tests, each at
// its own layer (docs/ARCHITECTURE.md, "Reference oracles").
//
// The event core itself is a calendar queue (internal/des): events hash
// into day buckets by timestamp, dequeue scans the current year of
// buckets behind a cursor, and the bucket count and day width track the
// live population, so schedule/cancel/dispatch stay O(1) amortized
// where a binary heap pays O(log n) per operation
// (BenchmarkSchedulerCalendar holds ~10⁶ resident events). Dispatch
// follows the exact (time, seq) total order, checked event for event
// against a linear-scan reference scheduler under randomized and fuzzed
// scripts. Two more giant-world levers ride on it: every hello beacon
// fires through one pending event — a ring of all nodes sorted by
// (phase, id) under a cursor, checked against per-node tickers —
// collapsing the dominant event population, and above 2048 nodes the
// per-node tables switch from dense id-indexed arrays to compact
// slot-mapped rows (dtn.NewCompactNeighborTable) so table memory is
// O(neighborhood) per node instead of O(world).
//
// The node-count scaling sweep (`glrexp -exp scale`) reports delivery,
// wall-clock, spanner-construction time (cached vs from-scratch),
// heap-allocation pressure (runtime.ReadMemStats), and the per-phase
// wall clock of the fast run for 100..1000-node scenarios at the paper's
// density; at 1000 nodes the cached spanner path cuts construction
// ~3.6×. CI guards the hot
// paths with a benchmark-regression gate (cmd/benchgate): spanner +
// medium + table + beacon-tick + world-step benchmarks run five times
// with -benchmem, per-benchmark median ns/op is normalized by a
// calibration probe while B/op and allocs/op gate raw, and any >15%
// regression against the committed ci/bench_baseline.json fails the
// build.
package glr

import (
	"fmt"

	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/metrics"
	"glr/internal/sim"
)

// Protocol selects the routing protocol for a run.
type Protocol string

// Supported protocols.
const (
	// GLR is the paper's Geometric Localized Routing protocol.
	GLR Protocol = "glr"
	// Epidemic is the Vahdat–Becker benchmark.
	Epidemic Protocol = "epidemic"
)

// Config describes one simulation run on the original flat surface.
// Zero values fall back to the paper's Table-1 defaults; construct with
// DefaultConfig.
//
// Config predates the composable scenario API and remains supported as
// a thin adapter: Run(cfg) is exactly cfg.Scenario() + Scenario.Run and
// produces byte-identical results. New code should use NewScenario,
// which also reaches the mobility models, workloads, observers, and the
// parallel Runner that Config cannot express.
//
// Deprecated: use NewScenario with functional options; see
// docs/MIGRATION.md for the field-by-field mapping. Config stays
// supported (and byte-identical) for existing callers.
type Config struct {
	// Protocol to run (default GLR).
	Protocol Protocol
	// Nodes is the network size (paper: 50).
	Nodes int
	// Range is the transmission range in metres (paper: 50–250).
	Range float64
	// Width and Height set the deployment region (paper: 1500×300 m).
	Width, Height float64
	// Messages generated using the paper's traffic pattern (45 sources,
	// round-robin, 1 msg/s). Ignored when Traffic is set.
	Messages int
	// Traffic optionally supplies an explicit schedule: (src, dst, at).
	Traffic []Message
	// SimTime is the horizon in seconds (0 = long enough for Traffic).
	SimTime float64
	// StorageLimit bounds per-node message storage (0 = unlimited).
	StorageLimit int
	// MaxSpeed is the random-waypoint top speed in m/s (paper: 20).
	MaxSpeed float64
	// Static disables mobility (uniform static placement).
	Static bool
	// Seed makes the run reproducible.
	Seed int64

	// GLRConfig overrides the GLR protocol parameters (nil = paper
	// defaults). See package documentation for the knobs.
	GLRConfig *GLRConfig
	// EpidemicConfig overrides the epidemic baseline parameters.
	EpidemicConfig *EpidemicConfig
}

// Message is one scheduled message generation.
type Message struct {
	Src, Dst int
	At       float64
}

// GLRConfig exposes the protocol knobs of the paper's §2 mechanisms.
type GLRConfig struct {
	// CheckInterval is the store-and-forward route re-check period
	// (paper default 0.9 s; Figure 3 sweeps it).
	CheckInterval float64
	// Copies forces the number of message copies; 0 uses Algorithm 1
	// (network sparsity decides).
	Copies int
	// DisableCustody turns off custody transfer (§2.3.2; Table 3
	// measures the cost of running without it).
	DisableCustody bool
	// Location selects the Table-2 destination-knowledge regime:
	// "source" (default), "all", or "none".
	Location string
	// K is the LDTG neighborhood depth (paper: 2).
	K int
	// FullTableExchange enables the §2.3.1 extension: whole location
	// tables are exchanged when nodes meet (the paper describes but
	// disables this for overhead reasons).
	FullTableExchange bool
}

// EpidemicConfig exposes the baseline's anti-entropy knobs.
type EpidemicConfig struct {
	// ExchangeInterval rate-limits per-pair anti-entropy sessions.
	ExchangeInterval float64
	// DataSendRate paces per-node message transfers (msgs/s; 0 = line
	// rate).
	DataSendRate float64
	// BroadcastDeltas enables the broadcast-advertisement enhancement
	// (off = faithful Vahdat–Becker; see DESIGN.md).
	BroadcastDeltas bool
	// ActiveReceipts enables the delivery-receipt extension discussed in
	// the paper's introduction: anti-packets purge delivered messages
	// from buffers network-wide.
	ActiveReceipts bool
}

// DefaultConfig returns the paper's Table-1 scenario at the given
// transmission range, with a modest default workload.
func DefaultConfig(rangeMetres float64) Config {
	return Config{
		Protocol: GLR,
		Nodes:    50,
		Range:    rangeMetres,
		Width:    1500,
		Height:   300,
		Messages: 200,
		MaxSpeed: 20,
		Seed:     1,
	}
}

// Result digests one run.
type Result struct {
	Generated      int
	Delivered      int
	DeliveryRatio  float64
	AvgLatency     float64 // seconds
	AvgHops        float64
	MaxPeakStorage int
	AvgPeakStorage float64
	Duplicates     int
	ControlFrames  uint64
	DataFrames     uint64
	Acks           uint64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("delivered %d/%d (%.1f%%), latency %.2fs, hops %.2f, peak storage max %d avg %.1f",
		r.Delivered, r.Generated, 100*r.DeliveryRatio, r.AvgLatency, r.AvgHops,
		r.MaxPeakStorage, r.AvgPeakStorage)
}

// resultFromReport lowers the internal run digest onto the public type.
func resultFromReport(rep metrics.Report) Result {
	return Result{
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

// Run executes one simulation and returns its metrics.
//
// Run is the original flat entry point, kept as a thin adapter over the
// scenario builder: it is exactly cfg.Scenario() followed by
// Scenario.Run, with byte-identical results. New code should use
// NewScenario.
//
// Deprecated: use NewScenario(...).Run(); see docs/MIGRATION.md.
func Run(cfg Config) (Result, error) {
	sc, err := cfg.Scenario()
	if err != nil {
		return Result{}, err
	}
	return sc.Run()
}

// Compare runs the same scenario under GLR and epidemic routing.
//
// Like Run, Compare is a thin adapter over the scenario builder; for
// multi-seed comparisons with confidence intervals and a worker pool,
// use Runner.Compare.
//
// Deprecated: use Runner.Compare, or two NewScenario runs differing
// only in WithGLR/WithEpidemic; see docs/MIGRATION.md.
func Compare(cfg Config) (glrRes, epidemicRes Result, err error) {
	cfg.Protocol = GLR
	glrRes, err = Run(cfg)
	if err != nil {
		return
	}
	cfg.Protocol = Epidemic
	epidemicRes, err = Run(cfg)
	return
}

// Validate reports a descriptive error for unusable configurations.
// Negative and non-finite knobs are rejected rather than silently
// treated as unset.
func (cfg Config) Validate() error {
	switch {
	case cfg.Nodes < 0:
		return fmt.Errorf("glr: node count %d must be nonnegative", cfg.Nodes)
	case !finite(cfg.Range) || cfg.Range < 0:
		return fmt.Errorf("glr: range %v must be nonnegative and finite", cfg.Range)
	case !finite(cfg.Width) || !finite(cfg.Height) || cfg.Width < 0 || cfg.Height < 0:
		// One dimension set without the other keeps the default region,
		// as the legacy path always did; only negatives are rejected.
		return fmt.Errorf("glr: region %vx%v must be nonnegative and finite", cfg.Width, cfg.Height)
	case cfg.Messages < 0:
		return fmt.Errorf("glr: message count %d must be nonnegative", cfg.Messages)
	case !finite(cfg.SimTime) || cfg.SimTime < 0:
		return fmt.Errorf("glr: sim time %v must be nonnegative and finite", cfg.SimTime)
	case cfg.StorageLimit < 0:
		return fmt.Errorf("glr: storage limit %d must be nonnegative", cfg.StorageLimit)
	case !finite(cfg.MaxSpeed) || cfg.MaxSpeed < 0:
		return fmt.Errorf("glr: max speed %v must be nonnegative and finite", cfg.MaxSpeed)
	}
	if err := cfg.GLRConfig.validate(); err != nil {
		return err
	}
	return cfg.EpidemicConfig.validate()
}

// validate rejects knob values outside their domain (nil is valid:
// paper defaults).
func (o *GLRConfig) validate() error {
	if o == nil {
		return nil
	}
	switch {
	case !finite(o.CheckInterval) || o.CheckInterval < 0:
		return fmt.Errorf("glr: check interval %v must be nonnegative and finite", o.CheckInterval)
	case o.Copies < 0:
		return fmt.Errorf("glr: copy count %d must be nonnegative", o.Copies)
	case o.K < 0:
		return fmt.Errorf("glr: LDTG depth K %d must be nonnegative", o.K)
	}
	switch o.Location {
	case "", "source", "all", "none":
	default:
		return fmt.Errorf("glr: unknown location regime %q", o.Location)
	}
	return nil
}

// validate rejects knob values outside their domain (nil is valid:
// faithful Vahdat–Becker defaults).
func (o *EpidemicConfig) validate() error {
	if o == nil {
		return nil
	}
	switch {
	case !finite(o.ExchangeInterval) || o.ExchangeInterval < 0:
		return fmt.Errorf("glr: exchange interval %v must be nonnegative and finite", o.ExchangeInterval)
	case !finite(o.DataSendRate) || o.DataSendRate < 0:
		return fmt.Errorf("glr: data send rate %v must be nonnegative and finite", o.DataSendRate)
	}
	return nil
}

// Scenario translates the flat Config onto the scenario builder — the
// migration path from the legacy surface: Run(cfg) ≡ cfg.Scenario() +
// Scenario.Run. The translation preserves the legacy zero-value
// semantics exactly (0 = paper default everywhere).
func (cfg Config) Scenario() (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts := []Option{WithProtocol(cfg.Protocol), WithSeed(cfg.Seed)}
	if cfg.Nodes > 0 {
		opts = append(opts, WithNodes(cfg.Nodes))
	}
	if cfg.Range > 0 {
		opts = append(opts, WithRange(cfg.Range))
	}
	if cfg.Width > 0 && cfg.Height > 0 {
		opts = append(opts, WithRegion(cfg.Width, cfg.Height))
	}
	if cfg.SimTime > 0 {
		opts = append(opts, WithSimTime(cfg.SimTime))
	}
	if cfg.StorageLimit > 0 {
		opts = append(opts, WithStorageLimit(cfg.StorageLimit))
	}
	if cfg.Static {
		opts = append(opts, WithMobility(Static{}))
		if cfg.MaxSpeed > 0 {
			// The legacy path carried MaxSpeed into static scenarios,
			// where it only widens the radio index's staleness slack;
			// preserved for byte-identical adapter results.
			opts = append(opts, legacyMaxSpeed(cfg.MaxSpeed))
		}
	} else if cfg.MaxSpeed > 0 {
		opts = append(opts, WithMobility(Waypoint{MaxSpeed: cfg.MaxSpeed}))
	}
	if len(cfg.Traffic) > 0 {
		opts = append(opts, WithWorkload(ScheduleWorkload(cfg.Traffic)))
	} else {
		// Always the fixed 45-source pattern, never the adaptive
		// PaperWorkload: legacy configs on networks too small for it
		// must keep erroring exactly as they always did.
		opts = append(opts, WithWorkload(legacyPaperWorkload{messages: cfg.Messages}))
	}
	if cfg.GLRConfig != nil {
		opts = append(opts, WithGLR(*cfg.GLRConfig))
	}
	if cfg.EpidemicConfig != nil {
		opts = append(opts, WithEpidemic(*cfg.EpidemicConfig))
	}
	return NewScenario(opts...)
}

// buildFactory constructs the protocol factory shared by the scenario
// builder and the legacy Config adapter, validating every knob (invalid
// values error instead of passing through as "unset").
// disableSpannerCache selects the GLR core's from-scratch reference
// spanner (a no-op for the epidemic baseline, which builds no spanners);
// every public path passes false.
func buildFactory(p Protocol, g *GLRConfig, e *EpidemicConfig, disableSpannerCache bool) (sim.ProtocolFactory, error) {
	// Both knob sets validate regardless of the selected protocol:
	// Runner.Compare runs the same scenario under either.
	if err := g.validate(); err != nil {
		return nil, err
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	switch p {
	case Epidemic:
		ec := epidemic.DefaultConfig()
		if o := e; o != nil {
			if o.ExchangeInterval > 0 {
				ec.ExchangeInterval = o.ExchangeInterval
			}
			if o.DataSendRate > 0 {
				ec.DataSendRate = o.DataSendRate
			}
			ec.BroadcastDeltas = o.BroadcastDeltas
			ec.ActiveReceipts = o.ActiveReceipts
		}
		return epidemic.New(ec)
	case GLR, "":
		gc := core.DefaultConfig()
		gc.DisableSpannerCache = disableSpannerCache
		if o := g; o != nil {
			if o.CheckInterval > 0 {
				gc.CheckInterval = o.CheckInterval
			}
			if o.Copies > 0 {
				gc.Copies = o.Copies
			}
			if o.K > 0 {
				gc.K = o.K
			}
			gc.Custody = !o.DisableCustody
			gc.FullTableExchange = o.FullTableExchange
			switch o.Location {
			case "", "source":
				gc.Location = core.LocSourceKnows
			case "all":
				gc.Location = core.LocAllKnow
			case "none":
				gc.Location = core.LocNoneKnow
			default:
				return nil, fmt.Errorf("glr: unknown location regime %q", o.Location)
			}
		}
		return core.New(gc)
	default:
		return nil, fmt.Errorf("glr: unknown protocol %q", p)
	}
}
