package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"glr"
	"glr/internal/dtn"
	"glr/internal/sim"
)

// userResults steps the worlds of an iteration through the public API
// alone, as a user would: Runner.Compare, or Scenario.Run.
func userResults(t *testing.T, w workload, base int64) []glr.Result {
	t.Helper()
	if w.compare {
		res, err := w.runCompare(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sc, err := glr.NewScenario(w.options(w.protos[0], base)...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return []glr.Result{r}
}

// TestTracedRun checks, on every workload, that the benchmark's lowering
// onto internal/sim and its traced run both reproduce the public API's
// reports exactly, and that the traced profile is a partition of the
// loop's wall clock.
func TestTracedRun(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			base := w.baseSeed(1, 0)
			want := userResults(t, w, base)
			for i, wd := range w.worlds(base) {
				c, err := w.compile(wd)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := sim.NewWorld(c.scn, c.factory)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(result(sw.Run())); got != fingerprint(want[i]) {
					t.Errorf("%s: lowered report %s, public API %s", w.key(wd), got, fingerprint(want[i]))
				}

				c, err = w.compile(wd)
				if err != nil {
					t.Fatal(err)
				}
				tw, rec, err := tracedWorld(c)
				if err != nil {
					t.Fatal(err)
				}
				rec.start()
				got := fingerprint(result(tw.Run()))
				wall := rec.stop()
				if got != fingerprint(want[i]) {
					t.Errorf("%s: traced report %s, public API %s", w.key(wd), got, fingerprint(want[i]))
				}
				checkPartition(t, w.key(wd), rec, wall)
			}
		})
	}
}

// checkPartition asserts that every span lies inside its parent, that
// no layer's self time is negative, and that self times plus other_s
// sum to the wall clock with other_s ≥ 0.
func checkPartition(t *testing.T, key string, rec *recorder, wall time.Duration) {
	t.Helper()
	p := rec.profile(wall)
	parent := parents(rec.spans)
	for i, s := range rec.spans {
		if s.end < s.start || s.start < 0 || s.end > int64(wall) {
			t.Fatalf("%s: span %s [%d,%d] outside loop [0,%d]", key, layerNames[s.layer], s.start, s.end, wall)
		}
		if q := parent[i]; q >= 0 && rec.spans[q].end < s.end {
			t.Fatalf("%s: span %s [%d,%d] overlaps parent %s [%d,%d]", key, layerNames[s.layer],
				s.start, s.end, layerNames[rec.spans[q].layer], rec.spans[q].start, rec.spans[q].end)
		}
	}
	sum := p.other()
	for l, self := range p.self {
		if self < 0 {
			t.Errorf("%s: %s self time %v < 0", key, layerNames[l], self)
		}
		sum += self
	}
	if p.other() < 0 {
		t.Errorf("%s: other_s %v < 0", key, p.other())
	}
	if sum != wall {
		t.Errorf("%s: self times plus other_s = %v, wall clock %v", key, sum, wall)
	}
	if len(rec.spans) == 0 {
		t.Errorf("%s: no spans recorded", key)
	}
}

// TestParents checks containment-based parent assignment.
func TestParents(t *testing.T) {
	spans := []span{
		{layerCoreHandler, 12, 15},
		{layerRx, 10, 20},
		{layerBeacon, 0, 5},
		{layerSpanner, 12, 13},
		{layerRx, 20, 25},
	}
	parent := parents(spans)
	got := map[[2]int64]int64{}
	for i, s := range spans {
		p := int64(-1)
		if parent[i] >= 0 {
			p = spans[parent[i]].start
		}
		got[[2]int64{s.start, s.end}] = p
	}
	want := map[[2]int64]int64{
		{0, 5}: -1, {10, 20}: -1, {12, 15}: 10, {12, 13}: 12, {20, 25}: -1,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("span %v: parent start %d, want %d", k, got[k], v)
		}
	}
	rec := &recorder{spans: spans}
	p := rec.profile(30)
	if p.self[layerRx] != 7+5 || p.self[layerCoreHandler] != 2 || p.self[layerSpanner] != 1 || p.other() != 30-5-12-2-1 {
		t.Errorf("self times %v, other %v", p.self, p.other())
	}
}

// restartProto counts restarts.
type restartProto struct{ restarts int }

func (*restartProto) Init(*sim.Node)                  {}
func (*restartProto) OnMessageGenerated(*dtn.Message) {}
func (*restartProto) OnFrame(any, int)                {}
func (*restartProto) OnBeacon(sim.Beacon)             {}
func (*restartProto) StorageUsed() int                { return 0 }
func (p *restartProto) Restart()                      { p.restarts++ }

// TestDecoratorForwardsRestart: churn finds sim.Restarter on the
// outermost protocol, so the decorator must forward it.
func TestDecoratorForwardsRestart(t *testing.T) {
	scn := sim.DefaultScenario(100)
	scn.SimTime = 1
	w, err := sim.NewWorld(scn, func(*sim.Node) sim.Protocol { return &restartProto{} })
	if err != nil {
		t.Fatal(err)
	}
	inner := &restartProto{}
	rec := &recorder{w: w, handler: layerEpidemicHandler, rxChild: -1}
	var p sim.Protocol = &tracedProto{inner: inner, rec: rec}
	rs, ok := p.(sim.Restarter)
	if !ok {
		t.Fatal("decorator does not implement sim.Restarter")
	}
	rec.start()
	rs.Restart()
	if inner.restarts != 1 {
		t.Fatalf("inner protocol restarted %d times, want 1", inner.restarts)
	}
	if len(rec.spans) != 1 || rec.spans[0].layer != layerEpidemicHandler {
		t.Fatalf("restart recorded spans %v, want one handler span", rec.spans)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks that the metrics the program prints are exactly
// those BENCHMARK.json declares, with the declared units, and that every
// name is well formed.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		var names []string
		for _, d := range declared {
			names = append(names, d.Name)
			m, ok := printed[d.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s declared but not printed", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s metric %s: unit %q printed, %q declared", kind, d.Name, m.Unit, d.Unit)
			}
		}
		for n := range printed {
			if !metricName.MatchString(n) {
				t.Errorf("%s metric name %q is malformed", kind, n)
			}
		}
		if len(printed) != len(declared) {
			sort.Strings(names)
			t.Errorf("%s: %d metrics printed, %d declared (%v)", kind, len(printed), len(declared), names)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics([]float64{1}, []float64{1}, []float64{1}, []float64{1}, []float64{1}, 1, 0))
	check("per-layer", spec.PerLayer, layerMetrics(layerTotals{}, 1))

	var declared []string
	for _, wl := range spec.Workloads {
		declared = append(declared, wl.Name)
	}
	var have []string
	for _, wl := range workloads {
		have = append(have, wl.name)
	}
	if len(declared) != len(have) {
		t.Fatalf("workloads %v declared, %v defined", declared, have)
	}
	for i := range have {
		if declared[i] != have[i] {
			t.Errorf("workload %d: %s declared, %s defined", i, declared[i], have[i])
		}
	}
}

// TestReferencesCoverSeeds checks that every world the benchmark steps
// for seeds 1–10 has a recorded fingerprint.
func TestReferencesCoverSeeds(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 10; seed++ {
			for iter := 0; iter < seedCycle; iter++ {
				for _, wd := range w.worlds(w.baseSeed(seed, iter)) {
					if _, ok := references[w.key(wd)]; !ok {
						t.Errorf("no reference for %s", w.key(wd))
					}
				}
			}
		}
	}
}

// TestIterationReport checks what an iteration process hands the loop,
// for a Runner.Compare workload and a single-world one: every world's
// report passes verify and the loop's repeat check, a differing repeat
// fails it, and the measurements are positive.
func TestIterationReport(t *testing.T) {
	for _, name := range []string{"paper_compare", "dense_glr_static"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := measureIteration(w, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Reports) != len(w.worlds(0)) || len(r.Worlds) == 0 {
			t.Fatalf("%s: %d reports and %d world contexts", name, len(r.Reports), len(r.Worlds))
		}
		chk := newChecker()
		for _, wr := range r.Reports {
			if wr.Err != "" {
				t.Errorf("%s: %s", wr.Key, wr.Err)
			}
			if !chk.record(wr.Key, wr.Fingerprint, nil) || !chk.record(wr.Key, wr.Fingerprint, nil) {
				t.Errorf("%s: checker refused a repeated identical report", wr.Key)
			}
		}
		if chk.record(r.Reports[0].Key, "differs", nil) {
			t.Errorf("%s: checker accepted a report that differs from an earlier one", name)
		}
		if r.SetupS <= 0 || r.RunS <= 0 || r.TotalS < r.RunS || r.CPUS <= 0 || r.HeapMB <= 0 {
			t.Errorf("%s: measurements %+v", name, r)
		}
	}
}
