package glr

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// faultTestSet exercises every disruption model at once: churn with
// state loss, stochastic link blackouts, GPS noise, Byzantine nodes,
// and a scheduled region blackout.
func faultTestSet() []Fault {
	return []Fault{
		{Kind: FaultChurn, Rate: 0.01, Duration: 15},
		{Kind: FaultLinkBlackout, Rate: 0.2, Period: 10},
		{Kind: FaultGPSNoise, Sigma: 30},
		{Kind: FaultByzantine, Fraction: 0.2},
		{Kind: FaultRegionBlackout, X: 300, Y: 50, W: 400, H: 200, Start: 30, End: 90},
	}
}

// runFaulted runs a small scenario under the given faults and returns
// its result.
func runFaulted(t *testing.T, seed int64, faults []Fault) Result {
	t.Helper()
	opts := []Option{
		WithNodes(30),
		WithWorkload(UniformWorkload{Messages: 40}),
		WithSimTime(150),
		WithSeed(seed),
	}
	if len(faults) > 0 {
		opts = append(opts, WithFaults(faults...))
	}
	s, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestZeroFaultsByteIdentity: building a scenario with an empty
// WithFaults (or none at all) must leave results byte-identical — the
// fault subsystem may not perturb a fault-free run, not even by
// consuming an RNG draw or an event sequence number.
func TestZeroFaultsByteIdentity(t *testing.T) {
	plain := runFaulted(t, 3, nil)
	empty := runFaulted(t, 3, []Fault{})
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty WithFaults diverged from no faults:\n  plain: %+v\n  empty: %+v", plain, empty)
	}
}

// TestFaultScheduleReplay: identical seeds replay the identical fault
// schedule (the observer's event stream) and run outcome; a different
// seed draws a different schedule.
func TestFaultScheduleReplay(t *testing.T) {
	faults := []Fault{{Kind: FaultChurn, Rate: 0.01, Duration: 15}}
	observe := func(seed int64) ([]FaultEvent, Result) {
		var events []FaultEvent
		s, err := NewScenario(
			WithNodes(30),
			WithWorkload(UniformWorkload{Messages: 40}),
			WithSimTime(150),
			WithSeed(seed),
			WithFaults(faults...),
			WithObserver(&Observer{OnFault: func(e FaultEvent) { events = append(events, e) }}),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	ev1, res1 := observe(5)
	ev2, res2 := observe(5)
	if len(ev1) == 0 {
		t.Fatal("churn plan produced no fault events")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("same seed replayed different fault schedules: %d vs %d events", len(ev1), len(ev2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("same seed produced different results:\n  %+v\n  %+v", res1, res2)
	}
	ev3, _ := observe(6)
	if reflect.DeepEqual(ev1, ev3) {
		t.Error("different seeds replayed the identical fault schedule")
	}
	for _, e := range ev1 {
		if e.Kind != FaultChurn {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		if e.Node < 0 || e.Node >= 30 {
			t.Fatalf("event node %d out of range", e.Node)
		}
	}
}

// TestFaultSampleIntensity: samples of a heavily faulted run must
// report fault intensity (drops, and down nodes at some instant),
// while a fault-free run reports zero on both.
func TestFaultSampleIntensity(t *testing.T) {
	run := func(faults []Fault) (maxDown int, drops uint64) {
		opts := []Option{
			WithNodes(30),
			WithWorkload(UniformWorkload{Messages: 40}),
			WithSimTime(150),
			WithObserver(&Observer{
				SampleEvery: 5,
				OnSample: func(s Sample) {
					if s.NodesDown > maxDown {
						maxDown = s.NodesDown
					}
					drops = s.FaultDrops
				},
			}),
		}
		if len(faults) > 0 {
			opts = append(opts, WithFaults(faults...))
		}
		s, err := NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return maxDown, drops
	}
	down, drops := run([]Fault{
		{Kind: FaultChurn, Rate: 0.02, Duration: 30},
		{Kind: FaultLinkBlackout, Rate: 0.5, Period: 10},
	})
	if down == 0 {
		t.Error("churn at rate 0.02 never sampled a down node")
	}
	if drops == 0 {
		t.Error("link blackout at rate 0.5 never dropped a reception")
	}
	down, drops = run(nil)
	if down != 0 || drops != 0 {
		t.Errorf("fault-free run reported intensity: down=%d drops=%d", down, drops)
	}
}

// TestWithFaultsValidation: malformed fault specs must be rejected at
// scenario construction with a descriptive error.
func TestWithFaultsValidation(t *testing.T) {
	bad := []struct {
		name  string
		fault Fault
	}{
		{"negative churn rate", Fault{Kind: FaultChurn, Rate: -1, Duration: 10}},
		{"churn without duration", Fault{Kind: FaultChurn, Rate: 0.1}},
		{"negative churn duration", Fault{Kind: FaultChurn, Rate: 0.1, Duration: -5}},
		{"link rate above 1", Fault{Kind: FaultLinkBlackout, Rate: 1.5}},
		{"negative link period", Fault{Kind: FaultLinkBlackout, Rate: 0.2, Period: -1}},
		{"rect outside region", Fault{Kind: FaultRegionBlackout, X: 1400, Y: 0, W: 200, H: 100, Start: 0, End: 10}},
		{"negative rect size", Fault{Kind: FaultRegionBlackout, X: 0, Y: 0, W: -10, H: 10, Start: 0, End: 10}},
		{"inverted window", Fault{Kind: FaultRegionBlackout, X: 0, Y: 0, W: 10, H: 10, Start: 20, End: 10}},
		{"negative sigma", Fault{Kind: FaultGPSNoise, Sigma: -1}},
		{"fraction above 1", Fault{Kind: FaultByzantine, Fraction: 1.1}},
		{"unknown kind", Fault{Kind: "meteor-strike"}},
	}
	for _, tc := range bad {
		if _, err := NewScenario(WithFaults(tc.fault)); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.fault)
		}
	}
	if _, err := NewScenario(WithFaults(faultTestSet()...)); err != nil {
		t.Errorf("valid fault set rejected: %v", err)
	}
}

// TestEncodeParseFaults: the canonical slug round-trips, empty sets
// encode to "", and malformed slugs are rejected.
func TestEncodeParseFaults(t *testing.T) {
	set := faultTestSet()
	enc := EncodeFaults(set)
	if enc == "" || !strings.Contains(enc, "churn(") || !strings.Contains(enc, "+byzantine(") {
		t.Fatalf("unexpected encoding %q", enc)
	}
	back, err := ParseFaults(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, back) {
		t.Errorf("round trip changed the set:\n  in:  %+v\n  out: %+v", set, back)
	}
	if EncodeFaults(back) != enc {
		t.Errorf("re-encoding drifted: %q vs %q", EncodeFaults(back), enc)
	}
	if got := EncodeFaults(nil); got != "" {
		t.Errorf("EncodeFaults(nil) = %q, want \"\"", got)
	}
	if fs, err := ParseFaults(""); err != nil || fs != nil {
		t.Errorf("ParseFaults(\"\") = %v, %v; want nil, nil", fs, err)
	}
	for _, s := range []string{
		"meteor-strike(rate=1)",
		"churn(rate=0.1,boom=2)",
		"churn(rate=abc)",
		"churn(rate0.1)",
		"churn(rate=0.1",
	} {
		if _, err := ParseFaults(s); err == nil {
			t.Errorf("ParseFaults(%q) accepted", s)
		}
	}
}

// FuzzParseFaults: every slug ParseFaults accepts must re-encode to a
// slug that parses back to an equal set, re-encoding that set must be
// stable, and no input may panic. Plain `go test` runs the seed corpus.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		EncodeFaults(faultTestSet()),
		"",
		"meteor-strike(rate=1)",
		"churn(rate=0.1,boom=2)",
		"churn(rate=abc)",
		"churn(rate0.1)",
		"churn(rate=0.1",
		"churn(rate=1000000,dur=30)+gps-noise(sigma=25)",
		"gps-noise(sigma=Inf)",
		"byzantine(frac=NaN)",
		"churn(rate=-0,rate=2)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseFaults(s)
		if err != nil {
			return
		}
		enc := EncodeFaults(set)
		back, err := ParseFaults(enc)
		if err != nil {
			t.Fatalf("ParseFaults(%q) accepted, but its encoding %q does not parse: %v", s, enc, err)
		}
		if !sameFaults(set, back) {
			t.Fatalf("round trip of %q via %q changed the set:\n  in:  %+v\n  out: %+v", s, enc, set, back)
		}
		if again := EncodeFaults(back); again != enc {
			t.Fatalf("re-encoding of %q drifted: %q vs %q", s, again, enc)
		}
	})
}

// sameFaults is reflect.DeepEqual over fault sets, except that a NaN
// field equals a NaN field (ParseFaults accepts "NaN"; range checks
// happen at scenario construction).
func sameFaults(a, b []Fault) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		va, vb := reflect.ValueOf(a[i]), reflect.ValueOf(b[i])
		for j := 0; j < va.NumField(); j++ {
			x, y := va.Field(j), vb.Field(j)
			if x.Kind() == reflect.Float64 {
				if x.Float() != y.Float() && !(math.IsNaN(x.Float()) && math.IsNaN(y.Float())) {
					return false
				}
			} else if x.Interface() != y.Interface() {
				return false
			}
		}
	}
	return true
}

// TestMatrixFaultAxis: fault sets are a first-class matrix axis — they
// appear in Axes, expand the cell cross-product, ride cell labels, and
// stay invisible (for cache-key stability) on fault-free cells.
func TestMatrixFaultAxis(t *testing.T) {
	m := Matrix{
		Nodes: []int{30},
		Faults: [][]Fault{
			nil,
			{{Kind: FaultChurn, Rate: 0.004, Duration: 30}},
		},
		Messages: 40,
		Seeds:    2,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var faultAxis *Axis
	for _, ax := range m.Axes() {
		if ax.Name == "faults" {
			ax := ax
			faultAxis = &ax
		}
	}
	if faultAxis == nil {
		t.Fatal("no faults axis")
	}
	want := []string{"none", "churn(rate=0.004,dur=30)"}
	if !reflect.DeepEqual(faultAxis.Values, want) {
		t.Errorf("faults axis %v, want %v", faultAxis.Values, want)
	}

	cells := m.Cells()
	if len(cells) != 4 { // 2 fault sets × 2 protocols
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	if cells[0].Faults != "" || cells[2].Faults != "churn(rate=0.004,dur=30)" {
		t.Errorf("cell fault encodings: %q, %q", cells[0].Faults, cells[2].Faults)
	}
	if l := cells[2].Label(); !strings.HasSuffix(l, "/churn(rate=0.004,dur=30)") {
		t.Errorf("faulted label %q lacks fault slug", l)
	}
	if l := cells[0].Label(); strings.Contains(l, "churn") {
		t.Errorf("fault-free label %q mentions faults", l)
	}

	// Fault-free cells must serialize exactly as they did before the
	// fault axis existed: cache keys hash the cell's JSON.
	raw, err := json.Marshal(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "Faults") {
		t.Errorf("fault-free cell JSON mentions Faults: %s", raw)
	}

	// A faulted cell compiles into a runnable scenario; a corrupt slug
	// surfaces at Options.
	if _, err := cells[2].Scenario(WithSeed(2)); err != nil {
		t.Errorf("faulted cell failed to compile: %v", err)
	}
	corrupt := cells[2]
	corrupt.Faults = "meteor-strike(x=1)"
	if _, err := corrupt.Options(); err == nil {
		t.Error("corrupt fault slug accepted by Options")
	}

	bad := Matrix{Faults: [][]Fault{{{Kind: FaultChurn, Rate: -1, Duration: 5}}}}
	if err := bad.Validate(); err == nil {
		t.Error("matrix with malformed fault accepted")
	}
}

// TestFaultKindsCoverInternal pins the public kind constants to their
// internal spellings (the serialization format).
func TestFaultKindsCoverInternal(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultLinkBlackout:   "link-blackout",
		FaultRegionBlackout: "region-blackout",
		FaultChurn:          "churn",
		FaultGPSNoise:       "gps-noise",
		FaultByzantine:      "byzantine",
	} {
		if string(kind) != want {
			t.Errorf("kind %q, want %q", kind, want)
		}
	}
}

// TestFaultedRunnerSmoke: a faulted scenario runs under the Runner's
// replication machinery and degrades delivery versus fault-free.
func TestFaultedRunnerSmoke(t *testing.T) {
	res := runFaulted(t, 1, nil)
	faulted := runFaulted(t, 1, []Fault{
		{Kind: FaultChurn, Rate: 0.05, Duration: 60},
		{Kind: FaultLinkBlackout, Rate: 0.6, Period: 10},
	})
	if faulted.DeliveryRatio >= res.DeliveryRatio {
		t.Logf("warning: heavy faults did not reduce delivery (%v vs %v)", faulted.DeliveryRatio, res.DeliveryRatio)
	}
	if faulted.Generated == 0 {
		t.Fatal("faulted run generated nothing")
	}
	_ = fmt.Sprintf("%v", faulted)
}
