package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"glr"
	"glr/internal/ldt"
	"glr/internal/mac"
	"glr/internal/shard"
	"glr/internal/sim"
)

// checker verifies reports: recorded fingerprints where they exist,
// sanity bounds always, and identical reports for a world stepped more
// than once in a run.
type checker struct {
	seen   map[string]string
	errors []string
}

func newChecker() *checker { return &checker{seen: map[string]string{}} }

// check verifies one world's report and reports whether it passed.
func (c *checker) check(key string, r glr.Result) bool {
	return c.record(key, fingerprint(r), verify(key, r))
}

// record takes one world's report as its fingerprint and verify's
// verdict, and reports whether it passed.
func (c *checker) record(key, fp string, err error) bool {
	if err == nil {
		if prev, ok := c.seen[key]; ok && prev != fp {
			err = fmt.Errorf("%s: report %s differs from this run's earlier %s", key, fp, prev)
		}
		c.seen[key] = fp
	}
	return c.fail(err)
}

// fail records err, if any, and reports whether there was none.
func (c *checker) fail(err error) bool {
	if err == nil {
		return true
	}
	c.errors = append(c.errors, err.Error())
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	return false
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (bytes marked live by the most
// recent garbage collection) while it runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler samples every 5 ms until Close.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// peakMB returns the peak so far in MiB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) Close() {
	close(h.stop)
	h.wg.Wait()
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// thresholdsString renders fork thresholds compactly.
func thresholdsString(t shard.Thresholds) string {
	return fmt.Sprintf("rx=%d beacon=%d mobility=%d diff=%d", t.RxMin, t.BeaconMin, t.MobilityMin, t.DiffMin)
}

// shardWorkers returns the world's shard pool size (1 when serial).
// Call before Run, which releases the pool.
func shardWorkers(w *sim.World) int {
	if p := w.Node(0).ShardPool(); p != nil {
		return p.Workers()
	}
	return 1
}

// worldReport is one world's report as an iteration process hands it
// to the loop: its fingerprint and, if it failed verify, why.
type worldReport struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Err         string `json:"error,omitempty"`
}

// iterationReport is what one iteration process prints.
type iterationReport struct {
	SetupS  float64        `json:"setup_s"`
	RunS    float64        `json:"run_s"`
	TotalS  float64        `json:"total_s"`
	CPUS    float64        `json:"cpu_s"`
	HeapMB  float64        `json:"peak_heap_mb"`
	Worlds  []worldContext `json:"worlds"`
	Reports []worldReport  `json:"reports"`
}

// measureIteration steps iteration iter of a run in this process, which
// the loop starts fresh for every iteration, as each of a user's runs is
// a fresh process.
//
// Set-up runs from scenario construction until the first world is ready
// to dispatch its first event, so it includes the per-process shard
// calibration a sharded world pays. paper_compare's Runner builds its
// own worlds inside the timed call, so there the first world is built
// only to time set-up, and run_s is the whole Compare call.
func measureIteration(w workload, seed int64, iter int) (iterationReport, error) {
	base := w.baseSeed(seed, iter)
	worlds := w.worlds(base)
	heap := startHeapSampler()
	defer heap.Close()

	start := time.Now()
	c, err := w.compile(worlds[0])
	if err != nil {
		return iterationReport{}, err
	}
	sw, err := sim.NewWorld(c.scn, c.factory)
	if err != nil {
		return iterationReport{}, err
	}
	setup := time.Since(start)
	rep := iterationReport{SetupS: setup.Seconds()}
	if w.compare {
		for _, p := range w.protos {
			rep.Worlds = append(rep.Worlds, worldContext{Protocol: string(p), ShardWorkers: max(w.parallelism(), 1),
				ForkThresholds: thresholdsString(w.thresholds())})
		}
	} else {
		rep.Worlds = []worldContext{{Protocol: string(worlds[0].proto), ShardWorkers: shardWorkers(sw),
			ForkThresholds: thresholdsString(sw.ForkThresholds())}}
	}

	var res []glr.Result
	cpu0 := cpuTime()
	runStart := time.Now()
	if w.compare {
		res, err = w.runCompare(context.Background(), base)
		if err != nil {
			return iterationReport{}, err
		}
	} else {
		res = []glr.Result{result(sw.Run())}
	}
	run := time.Since(runStart)
	rep.CPUS = (cpuTime() - cpu0).Seconds()
	rep.RunS = run.Seconds()
	rep.TotalS = (setup + run).Seconds()
	if w.compare {
		rep.TotalS = rep.RunS
	}
	rep.HeapMB = heap.peakMB()
	if len(res) != len(worlds) {
		return iterationReport{}, fmt.Errorf("%d reports for %d worlds", len(res), len(worlds))
	}
	for i, wd := range worlds {
		wr := worldReport{Key: w.key(wd), Fingerprint: fingerprint(res[i])}
		if err := verify(wr.Key, res[i]); err != nil {
			wr.Err = err.Error()
		}
		rep.Reports = append(rep.Reports, wr)
	}
	return rep, nil
}

// iteration runs iteration iter in a fresh process and returns its
// measurements.
func iteration(exe string, w workload, seed int64, iter int) (iterationReport, error) {
	cmd := exec.Command(exe, "-iteration", fmt.Sprint(iter), "-workload", w.name, "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return iterationReport{}, fmt.Errorf("iteration %d: %w", iter, err)
	}
	var r iterationReport
	if err := json.Unmarshal(bytes.TrimSpace(b), &r); err != nil {
		return iterationReport{}, fmt.Errorf("iteration %d output %q: %w", iter, b, err)
	}
	return r, nil
}

// endToEnd measures the end-to-end metrics with tracing off. Each
// iteration runs in its own process, one at a time, so set-up is
// measured once per iteration and a per-process shard calibration
// shapes one iteration, not the whole run.
func endToEnd(w workload, seed int64, seconds float64, ctx *benchContext) (output, error) {
	exe, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	chk := newChecker()
	var setupS, runS, rate, cpuS, heapMB []float64
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		attempted++
		r, err := iteration(exe, w, seed, iter)
		ok := chk.fail(err)
		for _, wr := range r.Reports {
			var verr error
			if wr.Err != "" {
				verr = errors.New(wr.Err)
			}
			ok = chk.record(wr.Key, wr.Fingerprint, verr) && ok
		}
		if !ok {
			failed++
			continue
		}
		for _, wc := range r.Worlds {
			ctx.addWorld(wc)
		}
		setupS = append(setupS, r.SetupS)
		runS = append(runS, r.RunS)
		rate = append(rate, w.nodeSeconds()/r.TotalS)
		cpuS = append(cpuS, r.CPUS)
		heapMB = append(heapMB, r.HeapMB)
		fmt.Printf("iteration %d: base seed %d setup_s=%.4f run_s=%.4f total_s=%.4f cpu_s=%.4f peak_heap_mb=%.1f\n",
			iter, w.baseSeed(seed, iter), r.SetupS, r.RunS, r.TotalS, r.CPUS, r.HeapMB)
	}
	ctx.Iterations = attempted
	if len(runS) == 0 {
		return output{}, fmt.Errorf("every iteration failed: %v", chk.errors)
	}
	return output{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   endToEndMetrics(setupS, runS, rate, cpuS, heapMB, attempted, failed),
	}, nil
}

// endToEndMetrics reports the medians of the per-iteration samples and
// the share of iterations whose reports passed every check.
func endToEndMetrics(setupS, runS, rate, cpuS, heapMB []float64, attempted, failed int) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setupS), "s"},
		"run_s":        {median(runS), "s"},
		"sim_rate":     {median(rate), "node-s/s"},
		"cpu_s":        {median(cpuS), "s"},
		"peak_heap_mb": {median(heapMB), "MB"},
		"ok_frac":      {float64(attempted-failed) / float64(attempted), "ratio"},
	}
}

// layerTotals accumulates the per-layer measurements of traced
// iterations.
type layerTotals struct {
	prof                 profile
	spanner              ldt.SpannerStats
	mac                  mac.Stats
	events, faultEvents  uint64
	untracedWall, cpu    time.Duration
	allocBytes, gcCycles uint64
	workers              int
}

// untracedWorld steps one world without tracing, folding its wall
// clock, CPU and allocation — what a user's run pays — into t.
func untracedWorld(w workload, wd world, t *layerTotals) (glr.Result, error) {
	c, err := w.compile(wd)
	if err != nil {
		return glr.Result{}, err
	}
	sw, err := sim.NewWorld(c.scn, c.factory)
	if err != nil {
		return glr.Result{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	r := result(sw.Run())
	t.untracedWall += time.Since(start)
	t.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	t.gcCycles += uint64(m1.NumGC - m0.NumGC)
	return r, nil
}

// tracedOneWorld steps the same world with the recorder attached and
// folds its profile and the layers' counters into t.
func tracedOneWorld(w workload, wd world, t *layerTotals, ctx *benchContext, spanFile string) (glr.Result, error) {
	c, err := w.compile(wd)
	if err != nil {
		return glr.Result{}, err
	}
	tw, rec, err := tracedWorld(c)
	if err != nil {
		return glr.Result{}, err
	}
	workers := shardWorkers(tw)
	t.workers = max(t.workers, workers)
	ctx.addWorld(worldContext{Protocol: string(wd.proto), ShardWorkers: workers,
		ForkThresholds: thresholdsString(tw.ForkThresholds())})
	runtime.GC()
	rec.start()
	r := result(tw.Run())
	wall := rec.stop()
	t.prof.add(rec.profile(wall))
	if c.maint != nil {
		t.spanner.Add(c.maint.Stats())
	}
	ms := tw.Medium().Stats()
	t.mac.Transmissions += ms.Transmissions
	t.mac.Collisions += ms.Collisions
	t.mac.BusyDeferrals += ms.BusyDeferrals
	t.mac.UnicastFailures += ms.UnicastFailures
	t.mac.Delivered += ms.Delivered
	t.mac.FaultDrops += ms.FaultDrops
	t.events += tw.Scheduler().Processed()
	t.faultEvents += rec.faultEvents
	if spanFile != "" {
		if err := rec.writeSpans(spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return r, nil
}

// tracedWorldPair steps one world untraced and traced, in an order that
// alternates with the iteration so neither side always runs on a
// freshly collected heap, and checks that both reports agree.
func tracedWorldPair(w workload, wd world, iter int, t *layerTotals, chk *checker, ctx *benchContext, spanFile string) bool {
	var plain, traced glr.Result
	var perr, terr error
	if iter%2 == 0 {
		plain, perr = untracedWorld(w, wd, t)
		traced, terr = tracedOneWorld(w, wd, t, ctx, spanFile)
	} else {
		traced, terr = tracedOneWorld(w, wd, t, ctx, spanFile)
		plain, perr = untracedWorld(w, wd, t)
	}
	if !chk.fail(perr) || !chk.fail(terr) {
		return false
	}
	key := w.key(wd)
	ok := chk.check(key, plain)
	if fp, tfp := fingerprint(plain), fingerprint(traced); fp != tfp {
		ok = chk.fail(fmt.Errorf("%s: traced report %s differs from untraced %s", key, tfp, fp))
	}
	return ok
}

// traced measures the per-layer profile: every world of each iteration
// runs once untraced and once traced, one world at a time.
func traced(w workload, seed int64, seconds float64, traceDir string, ctx *benchContext) (output, error) {
	chk := newChecker()
	var t layerTotals
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		ok := true
		for i, wd := range w.worlds(w.baseSeed(seed, iter)) {
			spanFile := ""
			if traceDir != "" && iter == 0 && i == 0 {
				if err := os.MkdirAll(traceDir, 0o755); err != nil {
					return output{}, err
				}
				spanFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.csv.gz", w.name, seed))
			}
			ok = tracedWorldPair(w, wd, iter, &t, chk, ctx, spanFile) && ok
		}
		attempted++
		if !ok {
			failed++
		}
	}
	ctx.Iterations = attempted
	return output{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   layerMetrics(t, attempted),
	}, nil
}

// layerMetrics turns the totals into per-iteration means and ratios.
func layerMetrics(t layerTotals, iters int) map[string]metric {
	n := float64(iters)
	per := func(x float64) float64 { return x / n }
	sec := func(d time.Duration) float64 { return d.Seconds() / n }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p, sp, ms := t.prof, t.spanner, t.mac
	overhead := 0.0
	if t.untracedWall > 0 {
		overhead = p.wall.Seconds() / t.untracedWall.Seconds()
	}
	cpuPerWall := 0.0
	if t.untracedWall > 0 {
		cpuPerWall = t.cpu.Seconds() / t.untracedWall.Seconds()
	}
	return map[string]metric{
		"ldt.query_s":             {sec(p.self[layerSpanner]), "s"},
		"ldt.queries":             {per(float64(sp.Queries)), "count"},
		"ldt.tri_builds":          {per(float64(sp.TriBuilds)), "count"},
		"ldt.tris_per_query":      {ratio(sp.TriBuilds, sp.Queries), "ratio"},
		"ldt.tri_hit_rate":        {ratio(sp.TriHits, sp.TriHits+sp.TriBuilds), "ratio"},
		"ldt.result_hit_rate":     {ratio(sp.ResultHits, sp.Queries), "ratio"},
		"ldt.spec_builds":         {per(float64(sp.SpecBuilds)), "count"},
		"ldt.spec_adopt_rate":     {ratio(sp.SpecAdopted, sp.SpecBuilds), "ratio"},
		"mac.rx_s":                {sec(p.self[layerRx]), "s"},
		"mac.transmissions":       {per(float64(ms.Transmissions)), "count"},
		"mac.collisions":          {per(float64(ms.Collisions)), "count"},
		"mac.busy_deferrals":      {per(float64(ms.BusyDeferrals)), "count"},
		"mac.unicast_failures":    {per(float64(ms.UnicastFailures)), "count"},
		"mac.delivered_per_tx":    {ratio(ms.Delivered, ms.Transmissions), "ratio"},
		"core.handler_s":          {sec(p.self[layerCoreHandler]), "s"},
		"core.handler_calls":      {per(float64(p.count[layerCoreHandler])), "count"},
		"epidemic.handler_s":      {sec(p.self[layerEpidemicHandler]), "s"},
		"epidemic.anti_entropy_s": {sec(p.self[layerAntiEntropy]), "s"},
		"epidemic.handler_calls":  {per(float64(p.count[layerEpidemicHandler])), "count"},
		"sim.beacon_s":            {sec(p.self[layerBeacon]), "s"},
		"sim.mobility_s":          {sec(p.self[layerMobility]), "s"},
		"des.events":              {per(float64(t.events)), "count"},
		"other_s":                 {sec(p.other()), "s"},
		"trace.loop_s":            {sec(p.wall), "s"},
		"fault.drops":             {per(float64(ms.FaultDrops)), "count"},
		"fault.events":            {per(float64(t.faultEvents)), "count"},
		"par.cpu_per_wall":        {cpuPerWall, "ratio"},
		"shard.workers":           {float64(t.workers), "count"},
		"go.alloc_mb":             {per(float64(t.allocBytes)) / (1 << 20), "MB"},
		"go.gc_cycles":            {per(float64(t.gcCycles)), "count"},
		"trace.overhead":          {overhead, "ratio"},
	}
}

// plainResults steps the worlds of the iteration starting at base
// untraced, on the paths untracedIteration times.
func plainResults(w workload, base int64) ([]glr.Result, error) {
	if w.compare {
		return w.runCompare(context.Background(), base)
	}
	c, err := w.compile(w.worlds(base)[0])
	if err != nil {
		return nil, err
	}
	sw, err := sim.NewWorld(c.scn, c.factory)
	if err != nil {
		return nil, err
	}
	return []glr.Result{result(sw.Run())}, nil
}

// recordReferences runs every workload's worlds for benchmark seeds
// 1..seeds, untraced, and writes their fingerprints to path.
func recordReferences(seeds int64, path string) error {
	refs := map[string]string{}
	for _, w := range workloads {
		for seed := int64(1); seed <= seeds; seed++ {
			for iter := 0; iter < seedCycle; iter++ {
				base := w.baseSeed(seed, iter)
				worlds := w.worlds(base)
				res, err := plainResults(w, base)
				if err != nil {
					return err
				}
				for i, wd := range worlds {
					if err := sane(res[i]); err != nil {
						return fmt.Errorf("%s: %w", w.key(wd), err)
					}
					refs[w.key(wd)] = fingerprint(res[i])
				}
			}
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
