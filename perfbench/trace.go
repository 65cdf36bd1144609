package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"

	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/ldt"
	"glr/internal/sim"
)

// Layer spans. Timed spans (rx batches, protocol handler calls) carry
// their real start and end. The program exposes beacon, mobility,
// anti-entropy and spanner time only as running totals, so those spans
// are reconstructed from the totals' growth between two timed
// boundaries: the growth happened inside that gap, and the span is laid
// at the gap's start. Parents follow from interval containment.
type layer uint8

const (
	layerRx layer = iota
	layerCoreHandler
	layerEpidemicHandler
	layerAntiEntropy
	layerSpanner
	layerBeacon
	layerMobility
	numLayers
)

// layerNames are the span names, which are also the per-layer time
// metric names without their "_s" suffix.
var layerNames = [numLayers]string{
	"mac.rx", "core.handler", "epidemic.handler", "epidemic.anti_entropy",
	"ldt.query", "sim.beacon", "sim.mobility",
}

// span is one traced interval in nanoseconds since the loop started.
type span struct {
	layer      layer
	start, end int64
}

// recorder traces one world's event loop from outside the program: a
// protocol decorator on every node, the medium's rx clock, the world's
// phase profile and the spanner cache's counters. It keeps every span in
// memory; the event loop is single-threaded, so no locking is needed.
type recorder struct {
	w       *sim.World
	maint   *ldt.Maintainer // nil under epidemic
	handler layer

	t0    time.Time
	spans []span

	// Totals at the last timed boundary, and that boundary's time.
	lastAt                                 int64
	lastBeacon, lastMob, lastAE, lastQuery time.Duration

	// rxChild is the start of the first reception handler since the last
	// rx batch ended (-1 when none): reception handlers run only inside
	// rx batches, so it bounds the batch's start from above.
	rxChild int64

	faultEvents uint64
}

// tracedWorld builds a world with the recorder attached. The decorator
// only observes, so the world's report equals the untraced one.
func tracedWorld(c compiled) (*sim.World, *recorder, error) {
	rec := &recorder{maint: c.maint, handler: layerEpidemicHandler, rxChild: -1}
	if c.maint != nil {
		rec.handler = layerCoreHandler
	}
	w, err := sim.NewWorld(c.scn, func(n *sim.Node) sim.Protocol {
		return &tracedProto{inner: c.factory(n), rec: rec}
	})
	if err != nil {
		return nil, nil, err
	}
	rec.w = w
	w.EnablePhaseProfile()
	// Replace the phase profile's own rx clock: the recorder needs each
	// batch as a span, not only the running total.
	w.Medium().SetRxClock(rec.rxBatch)
	w.SetFaultHook(func(fault.Event) { rec.faultEvents++ })
	return w, rec, nil
}

// start marks the beginning of the traced loop. Totals accrued before it
// (during world construction) are not loop time, so they only set the
// baseline.
func (r *recorder) start() {
	prof := r.w.PhaseProfile()
	r.lastBeacon, r.lastMob, r.lastAE = prof.Beacon, prof.Mobility, prof.AntiEntropy
	if r.maint != nil {
		r.lastQuery = r.maint.Stats().BuildTime
	}
	r.lastAt = 0
	r.t0 = time.Now()
}

// stop closes the last gap and returns the loop's wall clock.
func (r *recorder) stop() time.Duration {
	at := r.now()
	r.snapshot(at)
	return time.Duration(at)
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// snapshot turns the growth of the program's running totals since the
// last timed boundary into spans laid at that boundary, then records at
// as the new boundary.
func (r *recorder) snapshot(at int64) {
	prof := r.w.PhaseProfile()
	var query time.Duration
	if r.maint != nil {
		query = r.maint.Stats().BuildTime
	}
	cursor := r.lastAt
	grow := func(l layer, cur time.Duration, last *time.Duration) {
		if d := int64(cur - *last); d > 0 {
			r.spans = append(r.spans, span{layer: l, start: cursor, end: cursor + d})
			cursor += d
		}
		*last = cur
	}
	grow(layerBeacon, prof.Beacon, &r.lastBeacon)
	grow(layerMobility, prof.Mobility, &r.lastMob)
	grow(layerAntiEntropy, prof.AntiEntropy, &r.lastAE)
	grow(layerSpanner, query, &r.lastQuery)
	r.lastAt = at
}

// rxBatch is the medium's rx clock: one reception batch just ended.
func (r *recorder) rxBatch(d time.Duration) {
	end := r.now()
	start := end - int64(d)
	if r.rxChild >= 0 && r.rxChild < start {
		start = r.rxChild
	}
	r.spans = append(r.spans, span{layer: layerRx, start: start, end: end})
	r.rxChild = -1
	r.snapshot(end)
}

// begin opens a protocol handler span; reception marks handlers that
// run inside an rx batch.
func (r *recorder) begin(reception bool) int64 {
	start := r.now()
	r.snapshot(start)
	if reception && r.rxChild < 0 {
		r.rxChild = start
	}
	return start
}

// end closes the handler span opened at start.
func (r *recorder) end(start int64) {
	end := r.now()
	r.spans = append(r.spans, span{layer: r.handler, start: start, end: end})
	r.snapshot(end)
}

// tracedProto is the timing decorator around one node's protocol.
type tracedProto struct {
	inner sim.Protocol
	rec   *recorder
}

func (p *tracedProto) Init(n *sim.Node) { p.inner.Init(n) }

func (p *tracedProto) OnMessageGenerated(m *dtn.Message) {
	defer p.rec.end(p.rec.begin(false))
	p.inner.OnMessageGenerated(m)
}

func (p *tracedProto) OnFrame(payload any, from int) {
	defer p.rec.end(p.rec.begin(true))
	p.inner.OnFrame(payload, from)
}

func (p *tracedProto) OnBeacon(b sim.Beacon) {
	defer p.rec.end(p.rec.begin(true))
	p.inner.OnBeacon(b)
}

func (p *tracedProto) StorageUsed() int { return p.inner.StorageUsed() }

// Restart forwards a churn restart: the world finds sim.Restarter on the
// outermost protocol, so without it crashed nodes would keep their state.
func (p *tracedProto) Restart() {
	if rs, ok := p.inner.(sim.Restarter); ok {
		defer p.rec.end(p.rec.begin(false))
		rs.Restart()
	}
}

// profile is the exclusive per-layer split of traced loop time.
type profile struct {
	wall  time.Duration
	self  [numLayers]time.Duration
	count [numLayers]uint64
}

// other is the loop time no traced layer claims: event dispatch, timer
// work such as route checks outside the spanner, and tracing itself.
func (p profile) other() time.Duration {
	o := p.wall
	for _, s := range p.self {
		o -= s
	}
	return o
}

// add accumulates another world's profile.
func (p *profile) add(o profile) {
	p.wall += o.wall
	for i := range p.self {
		p.self[i] += o.self[i]
		p.count[i] += o.count[i]
	}
}

// parents assigns each span its innermost containing span (-1 for top
// level), after sorting spans by start with enclosing spans first.
func parents(spans []span) []int {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	parent := make([]int, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return parent
}

// profile computes each layer's self time: a span's duration minus the
// durations of its children.
func (r *recorder) profile(wall time.Duration) profile {
	p := profile{wall: wall}
	parent := parents(r.spans)
	for i, s := range r.spans {
		d := time.Duration(s.end - s.start)
		p.self[s.layer] += d
		p.count[s.layer]++
		if q := parent[i]; q >= 0 {
			p.self[r.spans[q].layer] -= d
		}
	}
	return p
}

// writeSpans writes the spans as gzipped CSV (name,start_ns,end_ns,
// parent), parent being the row index of the containing span or -1.
func (r *recorder) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	parent := parents(r.spans)
	fmt.Fprintln(bw, "name,start_ns,end_ns,parent")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d\n", layerNames[s.layer], s.start, s.end, parent[i])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
