package glr

import (
	"math"
	"strings"
	"testing"
)

// TestScenarioDefaultsMatchLegacyDefaults: NewScenario() with no
// options must equal the legacy DefaultConfig(100) run.
func TestScenarioDefaultsMatchLegacyDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full 200-message default run; skipped in -short")
	}
	sc, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("builder defaults diverged from DefaultConfig(100): %+v vs %+v", res, want)
	}
}

// TestMobilityModelsRun: every pluggable mobility model yields a
// working, deterministic scenario.
func TestMobilityModelsRun(t *testing.T) {
	tracePaths := make([][]TracePoint, 20)
	for i := range tracePaths {
		x := float64(50 + i*70)
		tracePaths[i] = []TracePoint{
			{T: 0, X: x, Y: 50},
			{T: 60, X: x, Y: 250},
			{T: 120, X: x, Y: 50},
		}
	}
	models := map[string]Mobility{
		"waypoint": Waypoint{MaxSpeed: 15, Pause: 2},
		"static":   Static{},
		"walk":     RandomWalk{MaxSpeed: 10, LegTime: 15},
		"trace":    Trace{Paths: tracePaths},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			opts := []Option{
				WithRange(250),
				WithMobility(m),
				WithWorkload(PaperWorkload{Messages: 8}),
				WithSimTime(120),
			}
			if name != "trace" {
				opts = append(opts, WithNodes(20))
			}
			sc, err := NewScenario(opts...)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Generated != 8 {
				t.Errorf("generated %d, want 8", a.Generated)
			}
			b, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s mobility not deterministic: %+v vs %+v", name, a, b)
			}
		})
	}
}

// TestTraceSetsNodeCount: with no WithNodes option the trajectory count
// determines the network size.
func TestTraceSetsNodeCount(t *testing.T) {
	paths := [][]TracePoint{
		{{T: 0, X: 100, Y: 100}},
		{{T: 0, X: 150, Y: 100}},
		{{T: 0, X: 200, Y: 100}},
	}
	sc, err := NewScenario(
		WithMobility(Trace{Paths: paths}),
		WithWorkload(ScheduleWorkload{{Src: 0, Dst: 2, At: 1}}),
		WithSimTime(60),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 {
		t.Errorf("generated %d, want 1", res.Generated)
	}
	// A *Trace infers the node count just like a Trace value.
	if _, err := NewScenario(
		WithMobility(&Trace{Paths: paths}),
		WithWorkload(ScheduleWorkload{{Src: 0, Dst: 2, At: 1}}),
		WithSimTime(60),
	); err != nil {
		t.Errorf("pointer Trace rejected: %v", err)
	}
	// Mismatched explicit node count must be rejected.
	if _, err := NewScenario(
		WithNodes(5),
		WithMobility(Trace{Paths: paths}),
	); err == nil {
		t.Error("trace count != node count accepted")
	}
}

// TestWorkloadsRun: every pluggable workload produces a valid,
// deterministic schedule.
func TestWorkloadsRun(t *testing.T) {
	loads := map[string]Workload{
		"paper":    PaperWorkload{Messages: 10},
		"uniform":  UniformWorkload{Messages: 10, Rate: 2},
		"poisson":  PoissonWorkload{Messages: 10, Rate: 2},
		"hotspot":  HotspotWorkload{Messages: 10, Rate: 2, Sinks: 3},
		"schedule": ScheduleWorkload{{Src: 0, Dst: 9, At: 1}, {Src: 5, Dst: 2, At: 3.5}},
	}
	for name, w := range loads {
		t.Run(name, func(t *testing.T) {
			sc, err := NewScenario(
				WithNodes(25),
				WithRange(250),
				WithWorkload(w),
				WithSimTime(130),
			)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := 10
			if name == "schedule" {
				want = 2
			}
			if a.Generated != want {
				t.Errorf("generated %d, want %d", a.Generated, want)
			}
			b, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s workload not deterministic", name)
			}
		})
	}
}

// TestPaperWorkloadSmallNetworks: the default workload must fit any
// node count WithNodes permits, shrinking its source set below the
// paper's 45 when the network cannot host it.
func TestPaperWorkloadSmallNetworks(t *testing.T) {
	for _, n := range []int{2, 5, 10, 46, 50} {
		sc, err := NewScenario(
			WithNodes(n),
			WithRange(250),
			WithWorkload(PaperWorkload{Messages: 30}),
			WithSimTime(80),
		)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Generated == 0 {
			t.Errorf("n=%d generated nothing", n)
		}
	}
	// The default workload with no options at all must also build.
	if _, err := NewScenario(WithNodes(10)); err != nil {
		t.Errorf("default workload rejected a 10-node network: %v", err)
	}
}

// TestWorkloadSeedVariation: randomized workloads must draw their
// schedules from the run seed, so different seeds give different
// traffic.
func TestWorkloadSeedVariation(t *testing.T) {
	w := PoissonWorkload{Messages: 30, Rate: 1}
	a, err := w.Schedule(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Schedule(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical Poisson schedules")
	}
	c, err := w.Schedule(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed produced different Poisson schedules")
		}
	}
}

// TestOptionValidation: malformed options fail at construction with
// descriptive errors.
func TestOptionValidation(t *testing.T) {
	cases := map[string][]Option{
		"nil option":         {nil},
		"one node":           {WithNodes(1)},
		"negative range":     {WithRange(-5)},
		"zero range":         {WithRange(0)},
		"bad region":         {WithRegion(100, -1)},
		"bad simtime":        {WithSimTime(-3)},
		"bad storage":        {WithStorageLimit(-1)},
		"bad protocol":       {WithProtocol("carrier-pigeon")},
		"nil mobility":       {WithMobility(nil)},
		"typed-nil mobility": {WithMobility((*Trace)(nil))},
		"nil workload":       {WithWorkload(nil)},
		"bad speeds":         {WithMobility(Waypoint{MinSpeed: 10, MaxSpeed: 5})},
		"min over default":   {WithMobility(Waypoint{MinSpeed: 25})}, // default max is 20
		"walk min over max":  {WithMobility(RandomWalk{MinSpeed: 25})},
		"negative speed":     {WithMobility(RandomWalk{MaxSpeed: -2})},
		"negative pause":     {WithMobility(Waypoint{Pause: -1})},
		"empty trace":        {WithMobility(Trace{})},
		"one-node trace": {
			WithMobility(Trace{Paths: [][]TracePoint{{{T: 0, X: 1, Y: 1}}}}),
			WithWorkload(UniformWorkload{Messages: 3}),
		},
		"negative messages": {WithWorkload(PaperWorkload{Messages: -1})},
		"negative rate":     {WithWorkload(UniformWorkload{Messages: 5, Rate: -1})},
		"too many sinks":    {WithNodes(5), WithWorkload(HotspotWorkload{Messages: 5, Sinks: 5})},
		"bad glr knob":      {WithGLR(GLRConfig{Copies: -2})},
		"bad glr location":  {WithGLR(GLRConfig{Location: "bogus"})},
		"bad epidemic knob": {WithEpidemic(EpidemicConfig{DataSendRate: -1})},
	}
	for name, opts := range cases {
		if _, err := NewScenario(opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOptionRejectsNonFinite: NaN and ±Inf on any float knob fail at
// NewScenario with an error naming the bad value, instead of running to
// a numeric "result" or failing later inside the simulator.
func TestOptionRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts []Option
	}{
		{"sim time NaN", []Option{WithSimTime(nan)}},
		{"sim time +Inf", []Option{WithSimTime(inf)}},
		{"sim time -Inf", []Option{WithSimTime(-inf)}},
		{"region width NaN", []Option{WithRegion(nan, 300)}},
		{"region height NaN", []Option{WithRegion(1500, nan)}},
		{"region width +Inf", []Option{WithRegion(inf, 300)}},
		{"region height +Inf", []Option{WithRegion(1500, inf)}},
		{"region width -Inf", []Option{WithRegion(-inf, 300)}},
		{"range NaN", []Option{WithRange(nan)}},
		{"range +Inf", []Option{WithRange(inf)}},
		{"range -Inf", []Option{WithRange(-inf)}},
		{"waypoint max speed NaN", []Option{WithMobility(Waypoint{MaxSpeed: nan})}},
		{"waypoint min speed NaN", []Option{WithMobility(Waypoint{MinSpeed: nan})}},
		{"waypoint pause +Inf", []Option{WithMobility(Waypoint{Pause: inf})}},
		{"walk leg time NaN", []Option{WithMobility(RandomWalk{LegTime: nan})}},
		{"walk max speed +Inf", []Option{WithMobility(RandomWalk{MaxSpeed: inf})}},
		{"uniform rate NaN", []Option{WithWorkload(UniformWorkload{Messages: 5, Rate: nan})}},
		{"uniform rate +Inf", []Option{WithWorkload(UniformWorkload{Messages: 5, Rate: inf})}},
		{"glr check interval NaN", []Option{WithGLR(GLRConfig{CheckInterval: nan})}},
		{"glr check interval +Inf", []Option{WithGLR(GLRConfig{CheckInterval: inf})}},
		{"epidemic exchange interval NaN", []Option{WithProtocol(Epidemic), WithEpidemic(EpidemicConfig{ExchangeInterval: nan})}},
		{"epidemic send rate +Inf", []Option{WithProtocol(Epidemic), WithEpidemic(EpidemicConfig{DataSendRate: inf})}},
		{"observer sample period NaN", []Option{WithObserver(&Observer{SampleEvery: nan, OnSample: func(Sample) {}})}},
		{"churn rate NaN", []Option{WithFaults(Fault{Kind: FaultChurn, Rate: nan, Duration: 5})}},
		{"link blackout period +Inf", []Option{WithFaults(Fault{Kind: FaultLinkBlackout, Rate: 0.1, Period: inf})}},
		{"region blackout end +Inf", []Option{WithFaults(Fault{Kind: FaultRegionBlackout, W: 10, H: 10, End: inf})}},
		{"gps sigma NaN", []Option{WithFaults(Fault{Kind: FaultGPSNoise, Sigma: nan})}},
		{"byzantine fraction NaN", []Option{WithFaults(Fault{Kind: FaultByzantine, Fraction: nan})}},
		{"trace first time NaN", []Option{WithMobility(Trace{Paths: nonFiniteTrace(TracePoint{T: nan, X: 10, Y: 10})})}},
		{"trace first time -Inf", []Option{WithMobility(Trace{Paths: nonFiniteTrace(TracePoint{T: -inf, X: 10, Y: 10})})}},
		{"trace x NaN", []Option{WithMobility(Trace{Paths: nonFiniteTrace(TracePoint{X: nan, Y: 10})})}},
		{"trace y +Inf", []Option{WithMobility(Trace{Paths: nonFiniteTrace(TracePoint{X: 10, Y: inf})})}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewScenario(c.opts...)
			if err == nil {
				t.Fatal("accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, "finite") {
				t.Fatalf("error %q does not say the value must be finite", msg)
			}
		})
	}
}

// nonFiniteTrace is a four-node trace set whose first node starts at
// first and then moves to a finite waypoint; the other nodes stand still.
func nonFiniteTrace(first TracePoint) [][]TracePoint {
	paths := [][]TracePoint{{first, {T: 30, X: 100, Y: 100}}}
	for i := 1; i < 4; i++ {
		paths = append(paths, []TracePoint{{T: 0, X: float64(50 * i), Y: 50}})
	}
	return paths
}

// TestConfigValidation pins the satellite fix: invalid legacy Config
// values error out instead of silently passing through as "unset".
func TestConfigValidation(t *testing.T) {
	check := func(name string, mutate func(*Config)) {
		cfg := DefaultConfig(100)
		cfg.Messages = 5
		cfg.SimTime = 50
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	check("negative nodes", func(c *Config) { c.Nodes = -3 })
	check("negative range", func(c *Config) { c.Range = -10 })
	check("negative messages", func(c *Config) { c.Messages = -1 })
	check("negative simtime", func(c *Config) { c.SimTime = -1 })
	check("negative storage", func(c *Config) { c.StorageLimit = -1 })
	check("negative speed", func(c *Config) { c.MaxSpeed = -1 })
	check("NaN range", func(c *Config) { c.Range = math.NaN() })
	check("NaN width", func(c *Config) { c.Width = math.NaN(); c.Height = 300 })
	check("NaN simtime", func(c *Config) { c.SimTime = math.NaN() })
	check("NaN speed", func(c *Config) { c.MaxSpeed = math.NaN() })
	check("negative width", func(c *Config) { c.Width = -500; c.Height = 300 })
	check("negative copies", func(c *Config) { c.GLRConfig = &GLRConfig{Copies: -1} })
	check("negative K", func(c *Config) { c.GLRConfig = &GLRConfig{K: -2} })
	check("negative check interval", func(c *Config) { c.GLRConfig = &GLRConfig{CheckInterval: -0.5} })
	check("negative exchange interval", func(c *Config) {
		c.Protocol = Epidemic
		c.EpidemicConfig = &EpidemicConfig{ExchangeInterval: -1}
	})
	check("negative send rate", func(c *Config) {
		c.Protocol = Epidemic
		c.EpidemicConfig = &EpidemicConfig{DataSendRate: -2}
	})

	// Errors carry the glr: prefix of the package.
	cfg := DefaultConfig(100)
	cfg.GLRConfig = &GLRConfig{Copies: -1}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "glr:") {
		t.Errorf("validation error %v lacks package prefix", err)
	}
}
