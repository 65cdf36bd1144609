package des

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// TestPendingCounter is the regression test for the O(1) Pending
// counter: it must track schedule, cancel, and dispatch exactly.
func TestPendingCounter(t *testing.T) {
	// The Scheduler is a calendar queue; the subtest keeps the
	// per-backend name the check has always run under.
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		if s.Pending() != 0 {
			t.Fatalf("fresh scheduler Pending = %d, want 0", s.Pending())
		}
		ids := make([]EventID, 0, 100)
		for i := 0; i < 100; i++ {
			ids = append(ids, s.At(Time(i), func() {}))
		}
		if s.Pending() != 100 {
			t.Fatalf("Pending = %d after 100 At, want 100", s.Pending())
		}
		for i := 0; i < 30; i++ {
			s.Cancel(ids[i*3]) // cancel 30 distinct events
		}
		if s.Pending() != 70 {
			t.Fatalf("Pending = %d after 30 cancels, want 70", s.Pending())
		}
		s.Cancel(ids[0]) // double cancel: no-op
		s.Cancel(0)      // zero id: no-op
		if s.Pending() != 70 {
			t.Fatalf("Pending = %d after no-op cancels, want 70", s.Pending())
		}
		s.Run(49.5) // dispatches the live events among ids[0..49]
		live := 0
		for i := 50; i < 100; i++ {
			if i%3 != 0 || i/3 >= 30 {
				live++
			}
		}
		if s.Pending() != live {
			t.Fatalf("Pending = %d after partial run, want %d", s.Pending(), live)
		}
		s.RunAll()
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after RunAll, want 0", s.Pending())
		}
	})
}

// TestCanceledReclamation is the schedule/cancel-churn stress test for
// the canceled-event-retention fix: canceled events used to sit in the
// queue until dispatch reached them, so a workload that cancels nearly
// everything it schedules grew the queue without bound. Cancel now
// reclaims eagerly, so after any churn the resident queue holds exactly
// the live events — and the survivors must still fire in order.
func TestCanceledReclamation(t *testing.T) {
	// The Scheduler is a calendar queue; the subtest keeps the
	// per-backend name the check has always run under.
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		rng := rand.New(rand.NewSource(7))
		var fired []Time
		keepEvery := 100
		kept := 0
		for i := 0; i < 20000; i++ {
			at := rng.Float64() * 1000
			id := s.At(at, func() { fired = append(fired, s.Now()) })
			if i%keepEvery == 0 {
				kept++
				continue
			}
			s.Cancel(id)
		}
		// 200 live events remain out of 20000 scheduled; eager
		// reclamation means the resident queue holds exactly those.
		if size := s.q.count; size != kept {
			t.Fatalf("queue holds %d events after churn, want exactly %d live", size, kept)
		}
		s.RunAll()
		if len(fired) != kept {
			t.Fatalf("fired %d events, want %d survivors", len(fired), kept)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("out-of-order dispatch after compaction: %v then %v", fired[i-1], fired[i])
			}
		}
	})
}

// scriptScheduler is the surface replayScript drives: the Scheduler and
// the refScheduler oracle both implement it.
type scriptScheduler interface {
	Now() Time
	At(t Time, fn Handler) EventID
	After(d float64, fn Handler) EventID
	Cancel(id EventID) bool
	Stop()
	Run(until Time)
	RunAll()
	Pending() int
	Processed() uint64
}

// refScheduler is the test oracle for the calendar queue: a linear-scan
// scheduler with the Scheduler's contract whose dispatch order is plainly
// (time, seq) — each dispatch scans every pending event for the
// minimum. EventIDs are seq+1, so they never repeat.
type refScheduler struct {
	now       Time
	seq       uint64
	pending   []refEvent
	stopped   bool
	processed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  Handler
}

func (s *refScheduler) Now() Time         { return s.now }
func (s *refScheduler) Pending() int      { return len(s.pending) }
func (s *refScheduler) Processed() uint64 { return s.processed }
func (s *refScheduler) Stop()             { s.stopped = true }
func (s *refScheduler) RunAll()           { s.Run(math.Inf(1)) }

func (s *refScheduler) At(t Time, fn Handler) EventID {
	if t < s.now || math.IsNaN(t) {
		panic("refScheduler: bad event time")
	}
	s.pending = append(s.pending, refEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
	return EventID(s.seq)
}

func (s *refScheduler) After(d float64, fn Handler) EventID { return s.At(s.now+d, fn) }

func (s *refScheduler) Cancel(id EventID) bool {
	for i, ev := range s.pending {
		if EventID(ev.seq+1) == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (s *refScheduler) Run(until Time) {
	s.stopped = false
	for !s.stopped && len(s.pending) > 0 {
		min := 0
		for i, ev := range s.pending {
			if ev.at < s.pending[min].at || (ev.at == s.pending[min].at && ev.seq < s.pending[min].seq) {
				min = i
			}
		}
		ev := s.pending[min]
		if ev.at > until {
			break
		}
		s.pending = append(s.pending[:min], s.pending[min+1:]...)
		s.now = ev.at
		s.processed++
		ev.fn()
	}
	if !s.stopped && s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
}

// chooser supplies replayScript's decisions: a seeded *rand.Rand, or a
// byteChooser replaying fuzz input.
type chooser interface {
	Intn(n int) int
	Float64() float64
}

// byteChooser reads decisions from a byte string, one byte each, and
// answers 0 once the bytes run out. Float64 has 256 values, so fuzz
// scripts are dense in simultaneous events.
type byteChooser struct {
	b []byte
	i int
}

func (c *byteChooser) next() byte {
	if c.i >= len(c.b) {
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

func (c *byteChooser) Intn(n int) int   { return int(c.next()) % n }
func (c *byteChooser) Float64() float64 { return float64(c.next()) / 256 }

// traceEntry is one dispatched event in a recorded run: which scheduled
// event fired, and when. Equal traces mean equal (time, seq) dispatch
// sequences, since labels are assigned in scheduling order.
type traceEntry struct {
	label int
	at    Time
}

// replayScript drives one scheduler through a mixed
// At/After/Cancel/Stop/Run workload whose every decision comes from rng,
// recording the dispatch trace; a successful Cancel is recorded as label
// -1. Event times sit on a quarter-second grid, so simultaneous events —
// and with them the seq tie-break — are common. Handlers themselves
// schedule and cancel, so the workload exercises in-dispatch mutation
// too.
func replayScript(s scriptScheduler, rng chooser) (trace []traceEntry, finalNow Time, pending int, processed uint64) {
	var ids []EventID
	cancel := func(id EventID) {
		if s.Cancel(id) {
			trace = append(trace, traceEntry{label: -1, at: s.Now()})
		}
	}
	label := 0
	schedule := func(at Time) {
		l := label
		label++
		var id EventID
		id = s.At(at, func() {
			trace = append(trace, traceEntry{label: l, at: s.Now()})
			switch rng.Intn(4) {
			case 0: // schedule a follow-up relative to now
				ll := label
				label++
				ids = append(ids, s.After(float64(rng.Intn(40))/4, func() {
					trace = append(trace, traceEntry{label: ll, at: s.Now()})
				}))
			case 1: // cancel a random earlier event
				if len(ids) > 0 {
					cancel(ids[rng.Intn(len(ids))])
				}
			case 2: // occasionally stop mid-run
				if rng.Intn(8) == 0 {
					s.Stop()
				}
			}
			_ = id
		})
		ids = append(ids, id)
	}
	for round := 0; round < 6; round++ {
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			schedule(s.Now() + float64(rng.Intn(200))/4)
		}
		for i := 0; i < n/4; i++ {
			cancel(ids[rng.Intn(len(ids))])
		}
		s.Run(s.Now() + rng.Float64()*40)
	}
	s.RunAll()
	return trace, s.Now(), s.Pending(), s.Processed()
}

// checkAgainstReference replays one script on the calendar-queue
// Scheduler and on the linear-scan refScheduler (each with its own
// chooser over the same decisions) and requires the same dispatch trace
// and final state. It returns the trace length.
func checkAgainstReference(t *testing.T, name string, mk func() chooser) int {
	t.Helper()
	calTrace, calNow, calPending, calProc := replayScript(NewScheduler(), mk())
	refTrace, refNow, refPending, refProc := replayScript(&refScheduler{}, mk())
	if !reflect.DeepEqual(calTrace, refTrace) {
		i := 0
		for i < len(calTrace) && i < len(refTrace) && calTrace[i] == refTrace[i] {
			i++
		}
		t.Fatalf("%s: dispatch traces diverge at entry %d (calendar %d entries, reference %d)",
			name, i, len(calTrace), len(refTrace))
	}
	if calNow != refNow || calPending != refPending || calProc != refProc {
		t.Fatalf("%s: final state diverges: now %v/%v pending %d/%d processed %d/%d",
			name, calNow, refNow, calPending, refPending, calProc, refProc)
	}
	return len(calTrace)
}

// TestCalendarDispatchEquality is the randomized equivalence property:
// under mixed At/After/Cancel/Stop workloads the calendar queue must
// dispatch exactly the same (time, seq) sequence as the linear-scan
// reference. Labels are assigned in scheduling (seq) order, and rng
// draws happen inside handlers, so any ordering divergence derails the
// whole trace.
func TestCalendarDispatchEquality(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		mk := func() chooser { return rand.New(rand.NewSource(seed)) }
		if checkAgainstReference(t, fmt.Sprintf("seed %d", seed), mk) == 0 {
			t.Fatalf("seed %d dispatched nothing; script too hostile to be meaningful", seed)
		}
	}
}

// FuzzSchedulerOrder turns arbitrary bytes into At/After/Cancel/Stop/Run
// scripts and checks the calendar queue's dispatch against the
// linear-scan reference. The seed corpus is byte strings drawn from
// TestCalendarDispatchEquality's seeds; plain `go test` replays it.
func FuzzSchedulerOrder(f *testing.F) {
	for seed := int64(0); seed < 30; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Add([]byte{}) // all-zero decisions: every event simultaneous
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstReference(t, "fuzz input", func() chooser { return &byteChooser{b: b} })
	})
}

// TestCalendarResizeStress walks the calendar through its resize policy —
// growth past many doublings, drain back down, clustered, simultaneous,
// and sparse far-future time distributions — and checks exact dispatch
// order (time order, FIFO within an instant) throughout.
func TestCalendarResizeStress(t *testing.T) {
	cases := []struct {
		name string
		gen  func(rng *rand.Rand, i int) Time
	}{
		{"uniform", func(rng *rand.Rand, i int) Time { return rng.Float64() * 1000 }},
		{"clustered", func(rng *rand.Rand, i int) Time { return float64(i/500) + rng.Float64()*1e-6 }},
		{"simultaneous", func(rng *rand.Rand, i int) Time { return float64(i % 7) }},
		{"sparse", func(rng *rand.Rand, i int) Time { return rng.Float64() * 1e8 }},
		{"bimodal", func(rng *rand.Rand, i int) Time {
			if i%2 == 0 {
				return rng.Float64()
			}
			return 1e6 + rng.Float64()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			rng := rand.New(rand.NewSource(11))
			const n = 5000
			want := make([]dispatchKey, 0, n)
			var got []dispatchKey
			for i := 0; i < n; i++ {
				at := tc.gen(rng, i)
				k := dispatchKey{at: at, seq: i}
				want = append(want, k)
				s.At(at, func() { got = append(got, k) })
			}
			s.RunAll()
			// Expected order: stable sort by time (stability = FIFO among
			// simultaneous events, since want is in scheduling order).
			sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dispatch order diverged from (time, seq) order (%d events)", n)
			}
		})
	}
}

// dispatchKey identifies one scheduled event in the resize stress test.
type dispatchKey struct {
	at  Time
	seq int
}

// BenchmarkSchedulerCalendar measures a steady-state
// schedule/cancel/dispatch mix at one million pending events: each
// operation schedules two future events, cancels one live event, and
// dispatches one event (handlers Stop the scheduler, so Run delivers
// exactly one dispatch). Net queue change per operation is zero, so the
// pending population holds at exactly 2^20 throughout — the regime where
// a binary heap's O(log n) sift paths hurt and the calendar queue's O(1)
// shows. Cancel targets come from a small ring of recently scheduled
// ids: the ring entry being replaced was scheduled ~1024 operations
// earlier into a 2^20-deep queue, so it is still pending when canceled.
//
// The prefill leaves the population exactly at the doubling threshold,
// so the first operation's transient +1 grows the calendar to 2^20
// buckets (~25 MB). One ring's worth of warm-up operations and a GC run
// before the timer starts, so that resize and the setup garbage never
// land in the timed loop and the per-op cost does not depend on b.N.
func BenchmarkSchedulerCalendar(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	const population = 1 << 20 // ~1e6 pending events
	const span = 1000.0        // seconds of event spread
	const ringSize = 1 << 10
	stop := func() { s.Stop() }
	var ring [ringSize]EventID
	for i := 0; i < population; i++ {
		ring[i&(ringSize-1)] = s.After(rng.Float64()*span, stop)
	}
	// Pre-draw the schedule offsets so the measured loop is scheduler
	// operations, not rng arithmetic.
	times := make([]float64, 1<<16)
	for i := range times {
		times[i] = rng.Float64() * span
	}
	op := func(i int) {
		s.Cancel(ring[i&(ringSize-1)])
		ring[i&(ringSize-1)] = s.After(times[(2*i)&(len(times)-1)], stop)
		s.After(times[(2*i+1)&(len(times)-1)], stop)
		s.Run(s.Now() + span) // Stop fires after one dispatch
	}
	for i := 0; i < ringSize; i++ {
		op(i)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(ringSize + i)
	}
}
