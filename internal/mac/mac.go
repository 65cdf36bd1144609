// Package mac simulates a CSMA/CA-flavoured wireless MAC over a shared
// medium: carrier sensing, random backoff, finite-rate frame
// serialization, receiver-side collision corruption, a bounded link-layer
// queue (150 frames in the paper's Table 1), and bounded retransmission of
// unicast frames.
//
// It deliberately simplifies IEEE 802.11 (no RTS/CTS, no NAV, no
// bit-level capture) while preserving the mechanisms the paper's analysis
// rests on: "the increased contention is the reason why epidemic routing
// slows down when messages increase" and "it is faster because contentions
// are avoided by allowing only reasonable number of identical message
// copies in transit". More traffic here means longer queues, more
// deferrals, and more collisions — exactly those dynamics.
package mac

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"glr/internal/des"
	"glr/internal/geom"
	"glr/internal/spatial"
)

// Broadcast is the destination id addressing every radio in range.
const Broadcast = -1

// Config holds medium-wide MAC/PHY parameters.
type Config struct {
	BitRate       float64 // link speed in bits/s (paper: 1 Mbps)
	Range         float64 // reception range in metres
	CSRangeFactor float64 // carrier-sense & interference range as a multiple of Range
	QueueLen      int     // link-layer queue capacity in frames (paper: 150)
	HeaderBits    int     // per-frame PHY+MAC overhead in bits
	SlotTime      float64 // backoff slot, seconds
	DIFS          float64 // idle time required before transmitting, seconds
	SIFS          float64 // turnaround before the implicit ack, seconds
	CWMin         int     // initial contention window, slots
	CWMax         int     // maximum contention window, slots
	MaxRetries    int     // unicast retransmission budget
	// CaptureRatio models the 802.11 capture effect: a reception
	// survives interference when the wanted signal is at least this
	// factor stronger than each interferer at the receiver. Power falls
	// as distance^-4 (two-ray ground), so with ratio 10 an interferer
	// must be within ~1.78× the sender's distance to corrupt the frame.
	// 0 disables capture (any overlap corrupts).
	CaptureRatio float64
	// VirtualCS models RTS/CTS virtual carrier sensing for unicast
	// frames: the channel is also reserved around the receiver, so
	// hidden terminals defer instead of colliding. NS-2's 802.11 used
	// RTS/CTS for all unicast data (RTSThreshold 0), so this matches
	// the paper's stack.
	VirtualCS bool
	// DisableSpatialIndex falls back to the O(n) full scans over radios
	// and active transmissions instead of the uniform-grid spatial
	// index. The two paths resolve identical frame sets; the flag
	// exists as an escape hatch and for benchmarking the index.
	DisableSpatialIndex bool
	// IndexSlack widens spatial-index queries over radios by this many
	// metres to tolerate movement between index refreshes. It must be
	// at least the farthest any radio can drift between Reindex calls
	// (the simulator sets MaxSpeed × reindex interval); zero is correct
	// for static radios.
	IndexSlack float64
	// DropRx, when non-nil, vetoes individual receptions: a frame from
	// src arriving at dst at time now (sender position at start of
	// airing, receiver position at reception) is silently lost when it
	// returns true, counted in Stats.FaultDrops. It is consulted after
	// the range check and before interference resolution. The indexed
	// and naive paths visit receivers in different orders, so it MUST be
	// a pure function of its arguments — the fault-injection layer's
	// blackout and churn predicates are; anything stateful would break
	// their byte-identity. Nil (the default) costs nothing on the hot
	// path.
	DropRx func(src, dst int, now float64, srcPos, dstPos geom.Point) bool
}

// DefaultConfig mirrors the paper's Table 1 at a given transmission range.
func DefaultConfig(rng float64) Config {
	return Config{
		BitRate:       1e6,
		Range:         rng,
		CSRangeFactor: 2.0,
		QueueLen:      150,
		HeaderBits:    58 * 8, // MAC+PHY header bytes, 802.11-ish
		SlotTime:      20e-6,
		DIFS:          50e-6,
		SIFS:          10e-6,
		CWMin:         32,
		CWMax:         1024,
		MaxRetries:    4,
		CaptureRatio:  10,
		VirtualCS:     true,
	}
}

// Validate reports a descriptive error for nonsensical configurations,
// non-finite floats included.
func (c Config) Validate() error {
	switch {
	case !finite(c.BitRate) || c.BitRate <= 0:
		return fmt.Errorf("mac: bit rate %v must be positive", c.BitRate)
	case !finite(c.Range) || c.Range <= 0:
		return fmt.Errorf("mac: range %v must be positive", c.Range)
	case !finite(c.CSRangeFactor) || c.CSRangeFactor < 1:
		return fmt.Errorf("mac: carrier-sense factor %v must be ≥ 1", c.CSRangeFactor)
	case c.QueueLen <= 0:
		return fmt.Errorf("mac: queue length %d must be positive", c.QueueLen)
	case !finite(c.SlotTime) || !finite(c.DIFS) || !finite(c.SIFS) ||
		c.SlotTime <= 0 || c.DIFS < 0 || c.SIFS < 0:
		return fmt.Errorf("mac: invalid timing parameters")
	case c.CWMin <= 0 || c.CWMax < c.CWMin:
		return fmt.Errorf("mac: invalid contention window [%d,%d]", c.CWMin, c.CWMax)
	case c.MaxRetries < 0:
		return fmt.Errorf("mac: negative retry budget")
	case !finite(c.CaptureRatio) || c.CaptureRatio < 0:
		return fmt.Errorf("mac: negative capture ratio")
	case !finite(c.IndexSlack) || c.IndexSlack < 0:
		return fmt.Errorf("mac: index slack %v must be nonnegative", c.IndexSlack)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Frame is one link-layer transmission unit. Payload is opaque to the MAC.
type Frame struct {
	Src     int
	Dst     int // Broadcast or a radio id
	Bits    int // payload size in bits (header added by the MAC)
	Payload any
}

// ReceiveFunc is invoked on a radio when a frame is successfully received.
type ReceiveFunc func(f *Frame)

// SentFunc is invoked on the sender when the MAC has finished with a frame:
// for unicast, ok reports whether the destination received it (after
// retries); for broadcast, ok is always true once the frame has aired.
type SentFunc func(f *Frame, ok bool)

// Stats counts medium-wide MAC events.
type Stats struct {
	FramesQueued    uint64
	QueueDrops      uint64
	Transmissions   uint64 // individual airings, including retries
	Collisions      uint64 // receiver-frame corruption events
	UnicastFailures uint64 // frames abandoned after MaxRetries
	Delivered       uint64 // successful frame receptions
	BusyDeferrals   uint64
	FaultDrops      uint64 // receptions vetoed by Config.DropRx
}

// Medium is the shared wireless channel. All radios attached to a medium
// share one spatial channel; concurrency is event-driven via the scheduler.
//
// Unless Config.DisableSpatialIndex is set, the medium keeps two
// uniform-grid indexes with cell size equal to the carrier-sense range:
// one over radios (cells refreshed lazily whenever a radio's position is
// observed, and in bulk by Reindex) and one over the anchor points of
// active transmissions (sender position, plus the receiver position for
// unicast virtual carrier sensing). Reception resolution, carrier
// sensing, and interference checks then touch only the 3×3 cell block
// around a point instead of every radio and airing in the simulation.
//
// An airing is retained (in the active FIFO and the transmission index)
// only until it can no longer overlap an airing still to be resolved:
// pruneActive releases it once it has been resolved and ended by the
// horizon, the earliest start among unresolved airings. Right after a
// prune, every retained airing started at most two of the longest
// airtimes ago, however long or short the frames are.
type Medium struct {
	cfg      Config
	sched    *des.Scheduler
	rng      *rand.Rand
	radios   []*Radio
	active   []*transmission // FIFO, in start order, of airings that may still overlap an unresolved one
	head     int             // index of the oldest retained entry in active
	inflight int             // airings not yet ended (end > now)
	horizon  des.Time        // earliest unresolved start at the last prune (see pruneActive)
	stats    Stats

	// Spatial index state (nil / unused when DisableSpatialIndex).
	// Transmission anchors are registered under small recycled handles
	// so the handle table stays a dense slice.
	radioIdx    *spatial.Grid
	txIdx       *spatial.Grid
	txByHandle  []*transmission
	freeHandles []int
	scratch     []int           // receiver-candidate ids for the batch being resolved
	csScratch   []int           // carrier-sense / interferer-gather handle buffer
	txCand      []*transmission // interferer candidates shared by the batch being resolved
	candEpoch   uint64          // dedup stamp for txCand gathering
	batch       []*transmission // airings ending at the tick being resolved
	txFree      []*transmission // recycled transmission objects

	// rxClock, when non-nil, receives the wall-clock duration of each
	// end-of-airing resolution batch (see SetRxClock).
	rxClock func(time.Duration)
	// afterPrune, when non-nil, runs after every pruneActive; the
	// package's tests use it to check the retention invariants.
	afterPrune func()
}

// takeTx returns a recycled (or fresh) transmission object. Recycling is
// safe because pruneActive releases a transmission only after its end
// event has fired, and every other reference to it — the active FIFO,
// the spatial handles, batch, and txCand — is dropped by then; radios
// keep only value copies of their own airings.
func (m *Medium) takeTx() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		t.resolved = false
		t.candMark = 0
		return t
	}
	t := &transmission{}
	t.onEnd = func() { t.from.medium.resolveEnds(t) }
	return t
}

// NewMedium creates a medium. seed drives backoff jitter only.
func NewMedium(sched *des.Scheduler, cfg Config, seed int64) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{
		cfg:   cfg,
		sched: sched,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if !cfg.DisableSpatialIndex {
		// Cell sizes match each index's query radius so any disk query
		// touches at most a 3×3 cell block: reception range for the
		// radio index, carrier-sense range for transmission anchors.
		var err error
		if m.radioIdx, err = spatial.NewGrid(cfg.Range); err != nil {
			return nil, err
		}
		if m.txIdx, err = spatial.NewGrid(cfg.Range * cfg.CSRangeFactor); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SetRxClock installs a callback receiving the wall-clock duration of
// each end-of-airing resolution batch (reception resolution is the
// medium's hot phase). nil (the default) disables the timing; the
// simulator's phase profiler installs it on demand.
func (m *Medium) SetRxClock(fn func(time.Duration)) { m.rxClock = fn }

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// AddRadio attaches a radio with the given id (must equal the insertion
// index), position source, and callbacks. onSent may be nil.
func (m *Medium) AddRadio(id int, pos func() geom.Point, onRecv ReceiveFunc, onSent SentFunc) (*Radio, error) {
	if id != len(m.radios) {
		return nil, fmt.Errorf("mac: radio id %d must be %d (insertion order)", id, len(m.radios))
	}
	r := &Radio{
		id:     id,
		medium: m,
		pos:    pos,
		onRecv: onRecv,
		onSent: onSent,
		cw:     m.cfg.CWMin,
	}
	r.attemptFn = func() {
		r.attemptArmed = false
		r.tryTransmit()
	}
	m.radios = append(m.radios, r)
	if m.radioIdx != nil {
		if err := m.radioIdx.Insert(id, pos()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Reindex refreshes every radio's cached grid cell from its position
// callback. The simulator calls it periodically (once per beacon
// interval) so that, together with the lazy per-observation refreshes,
// no cached cell is ever staler than one reindex period — the drift
// bound Config.IndexSlack must cover. It is a no-op when the spatial
// index is disabled.
func (m *Medium) Reindex() {
	if m.radioIdx == nil {
		return
	}
	for _, r := range m.radios {
		m.radioIdx.Update(r.id, r.pos())
	}
}

// transmission is one airing of a frame. Objects are pooled by the
// medium: pruneActive releases one once it is resolved and ended by the
// horizon, and takeTx hands it out again. onEnd is the reusable
// end-of-airing event handler, allocated once per pooled object.
type transmission struct {
	from       *Radio
	frame      *Frame
	start, end des.Time
	pos        geom.Point // sender position at start of airing
	rxPos      geom.Point // unicast receiver position (virtual CS anchor)
	hasRx      bool
	h0, h1     int // spatial-index handles for pos / rxPos (h1 = -1 if none)
	onEnd      des.Handler
	resolved   bool   // receptions resolved (by its own or a batch-mate's end event)
	candMark   uint64 // dedup stamp against Medium.candEpoch during gathering
}

// airing is a value copy of a transmission's interval, retained on the
// sending radio for half-duplex checks after the transmission object
// may have been recycled. A radio drops it on its next airing once it
// ended by the medium's horizon (see indexTransmission).
type airing struct {
	start, end des.Time
}

func (t *transmission) overlaps(u *transmission) bool {
	return t.start < u.end && u.start < t.end
}

// frameAirtime returns the seconds needed to serialize a frame.
func (m *Medium) frameAirtime(f *Frame) float64 {
	return float64(m.cfg.HeaderBits+f.Bits) / m.cfg.BitRate
}

// occupies reports whether airing t keeps the channel busy at p now, per
// physical carrier sense around the sender and (when enabled) virtual
// carrier sense around the unicast receiver — the RTS/CTS NAV only
// reaches nodes that can decode the receiver's CTS, i.e. within
// reception range of it.
func (m *Medium) occupies(t *transmission, p geom.Point, now des.Time, cs2, range2 float64) bool {
	if t.end <= now {
		return false
	}
	return t.pos.Dist2(p) <= cs2 ||
		(m.cfg.VirtualCS && t.hasRx && t.rxPos.Dist2(p) <= range2)
}

// busyFor reports whether the channel is sensed busy at p now, and if so,
// the latest end time among the occupying transmissions.
func (m *Medium) busyFor(p geom.Point) (bool, des.Time) {
	if m.inflight == 0 {
		return false, 0 // silent channel: nothing with end > now exists
	}
	now := m.sched.Now()
	cs := m.cfg.Range * m.cfg.CSRangeFactor
	cs2 := cs * cs
	range2 := m.cfg.Range * m.cfg.Range
	busy := false
	var until des.Time
	if m.txIdx == nil {
		for _, t := range m.active[m.head:] {
			if m.occupies(t, p, now, cs2, range2) {
				busy = true
				if t.end > until {
					until = t.end
				}
			}
		}
		return busy, until
	}
	// Both anchor kinds are covered by one query of radius cs: a
	// transmission occupying p has its sender anchor within cs, or its
	// receiver anchor within Range ≤ cs. Anchors are positions frozen
	// at the start of the airing, so no movement slack is needed. A
	// unicast airing indexed under both anchors may be visited twice;
	// the predicate is idempotent. The handle buffer is separate from
	// the batch's receiver scratch because carrier sensing runs inside
	// reception callbacks (receiver reacts by queueing a frame).
	m.csScratch = m.txIdx.NearIDs(p, cs, m.csScratch[:0])
	for _, h := range m.csScratch {
		if t := m.txByHandle[h]; m.occupies(t, p, now, cs2, range2) {
			busy = true
			if t.end > until {
				until = t.end
			}
		}
	}
	return busy, until
}

// allocHandle registers t under a recycled spatial-index handle at
// anchor p.
func (m *Medium) allocHandle(t *transmission, p geom.Point) int {
	var h int
	if n := len(m.freeHandles); n > 0 {
		h = m.freeHandles[n-1]
		m.freeHandles = m.freeHandles[:n-1]
		m.txByHandle[h] = t
	} else {
		h = len(m.txByHandle)
		m.txByHandle = append(m.txByHandle, t)
	}
	m.txIdx.Update(h, p)
	return h
}

// releaseHandle unregisters handle h.
func (m *Medium) releaseHandle(h int) {
	m.txIdx.Remove(h)
	m.txByHandle[h] = nil
	m.freeHandles = append(m.freeHandles, h)
}

// indexTransmission registers a fresh airing with the spatial index:
// the transmission is bucketed under its anchor cells, and the sender's
// cached cell is refreshed from the position just observed.
func (m *Medium) indexTransmission(t *transmission) {
	if m.txIdx == nil {
		t.h1 = -1
		return
	}
	if m.cfg.IndexSlack > 0 {
		m.radioIdx.Update(t.from.id, t.pos) // lazy refresh of the sender
	}
	t.h0 = m.allocHandle(t, t.pos)
	t.h1 = -1
	if t.hasRx {
		t.h1 = m.allocHandle(t, t.rxPos)
	}
	// Remember the airing interval on the sender for half-duplex
	// checks, dropping entries that ended by the horizon of the last
	// prune: no airing still to be resolved can overlap them. The stored
	// horizon may be stale, but the horizon only grows, so a stale one
	// keeps more, never less.
	keep := t.from.recent[:0]
	for _, u := range t.from.recent {
		if u.end > m.horizon {
			keep = append(keep, u)
		}
	}
	t.from.recent = append(keep, airing{start: t.start, end: t.end})
}

// pruneActive releases the airings that can no longer affect any
// outcome. The horizon is the earliest start among airings not yet
// resolved (the active FIFO is in start order, so it is the start of the
// first unresolved entry); every airing still to be resolved, and every
// future one, starts at or after it. Overlap is strict, so an airing
// that ended by the horizon can corrupt no reception and, having ended
// by now, occupies no channel. Head entries are popped once resolved and
// ended by the horizon, amortized O(1) per airing; a resolved entry
// behind a still-needed one waits and is filtered by the overlap checks
// like any other retained entry. A popped entry's own end event has
// fired, so recycling it is safe: simultaneous events fire in scheduling
// order, and an airing resolved in a batch was scheduled before any
// airing whose end event can trigger a later prune in the same tick.
func (m *Medium) pruneActive() {
	m.horizon = m.sched.Now()
	for _, t := range m.active[m.head:] {
		if !t.resolved {
			m.horizon = t.start
			break
		}
	}
	for m.head < len(m.active) {
		t := m.active[m.head]
		if !t.resolved || t.end > m.horizon {
			break
		}
		if m.txIdx != nil {
			m.releaseHandle(t.h0)
			if t.h1 >= 0 {
				m.releaseHandle(t.h1)
			}
		}
		m.active[m.head] = nil // allow collection
		m.head++
		t.frame = nil // drop the payload reference while pooled
		m.txFree = append(m.txFree, t)
	}
	if m.head == len(m.active) {
		m.active = m.active[:0]
		m.head = 0
	} else if m.head >= 64 && m.head*2 >= len(m.active) {
		n := copy(m.active, m.active[m.head:])
		for i := n; i < len(m.active); i++ {
			m.active[i] = nil
		}
		m.active = m.active[:n]
		m.head = 0
	}
}

// txCorrupts reports whether airing u destroys reception of t at
// position p (receiver id rid). The capture effect lets a much stronger
// wanted signal survive: with two-ray path loss, power ratio ≈
// (d_interferer/d_sender)⁴.
func (m *Medium) txCorrupts(u, t *transmission, rid int, p geom.Point, ir2, dWanted2 float64) bool {
	if u == t || !t.overlaps(u) {
		return false
	}
	if u.from.id == rid {
		return true // half-duplex: was transmitting during t
	}
	dInt2 := u.pos.Dist2(p)
	if dInt2 > ir2 {
		return false // interferer too far to matter
	}
	if m.cfg.CaptureRatio > 0 && dWanted2 > 0 {
		ratio2 := dInt2 / dWanted2
		if ratio2*ratio2 >= m.cfg.CaptureRatio {
			return false // captured: wanted signal dominates
		}
	}
	return true
}

// corruptedAt reports whether reception of t at position p (receiver id
// rid) is destroyed by an overlapping transmission from another sender
// within interference range, or by the receiver transmitting itself
// (half-duplex).
func (m *Medium) corruptedAt(t *transmission, rid int, p geom.Point) bool {
	ir := m.cfg.Range * m.cfg.CSRangeFactor
	ir2 := ir * ir
	dWanted2 := t.pos.Dist2(p)
	if m.txIdx == nil {
		for _, u := range m.active[m.head:] {
			if m.txCorrupts(u, t, rid, p, ir2, dWanted2) {
				return true
			}
		}
		return false
	}
	// Half-duplex first: the receiver's own overlapping airings corrupt
	// regardless of distance, so they come from the per-radio history
	// rather than the (distance-bounded) candidate set. t is never the
	// receiver's own airing (senders do not receive themselves), so no
	// identity check is needed.
	for _, u := range m.radios[rid].recent {
		if t.start < u.end && u.start < t.end {
			return true
		}
	}
	// txCand was gathered once for the whole end-of-tick batch by
	// gatherInterferers; it is a superset of every transmission within
	// interference range of any receiver of any batch member, so the
	// exact predicate decides. Batch-mates are in the set and genuinely
	// overlap each other; t itself is skipped by the u == t check.
	for _, u := range m.txCand {
		if u.from.id != rid && m.txCorrupts(u, t, rid, p, ir2, dWanted2) {
			return true
		}
	}
	return false
}

// gatherInterferers collects, once per end-of-tick batch, the active
// transmissions that could interfere at any receiver of any batch
// member. Every receiver lies within Range of its sender and an
// interferer matters within ir of the receiver, so one index query of
// radius Range+ir around each batch sender covers them all; candidates
// are deduplicated across the batch (and across a unicast airing's two
// anchors) with an epoch stamp on the transmission object, so the union
// is gathered in a single pass over the affected grid cells.
func (m *Medium) gatherInterferers() {
	m.txCand = m.txCand[:0]
	m.candEpoch++
	reach := m.cfg.Range * (1 + m.cfg.CSRangeFactor)
	for _, t := range m.batch {
		m.csScratch = m.txIdx.NearIDs(t.pos, reach, m.csScratch[:0])
		for _, h := range m.csScratch {
			if u := m.txByHandle[h]; u.candMark != m.candEpoch {
				u.candMark = m.candEpoch
				m.txCand = append(m.txCand, u)
			}
		}
	}
}

// resolveEnds is the end-of-airing event handler. Airings whose ends
// coincide (same simulated tick) are resolved as one batch: the first
// end event to fire prunes the FIFO once, gathers the batch's shared
// interferer-candidate set in one pass over the affected grid cells,
// and then resolves every batch member in scheduling order; the
// remaining members' own end events become no-ops. Ordering is
// preserved — batch members are resolved in active-FIFO order, which is
// exactly the order their individual end events were scheduled in.
func (m *Medium) resolveEnds(t *transmission) {
	if t.resolved {
		return
	}
	if m.rxClock != nil {
		start := time.Now()
		defer func() { m.rxClock(time.Since(start)) }()
	}
	now := m.sched.Now()
	m.pruneActive()
	if m.afterPrune != nil {
		m.afterPrune()
	}
	m.batch = m.batch[:0]
	for _, u := range m.active[m.head:] {
		if !u.resolved && u.end == now {
			u.resolved = true
			m.batch = append(m.batch, u)
		}
	}
	if m.txIdx != nil {
		m.gatherInterferers()
	}
	for _, u := range m.batch {
		u.from.endTransmission(u)
	}
}

// finishTransmission resolves receptions at the end of an airing and
// reports whether the unicast destination (if any) received the frame.
// The caller (resolveEnds) has already pruned the FIFO and gathered the
// batch's interferer candidates.
func (m *Medium) finishTransmission(t *transmission) bool {
	if dst := t.frame.Dst; dst != Broadcast {
		// Unicast fast path: only the destination can accept the frame,
		// and radio ids are dense insertion indices, so the id→radio
		// lookup is O(1) regardless of network size.
		if dst < 0 || dst >= len(m.radios) || dst == t.from.id {
			return false
		}
		return m.deliverTo(t, m.radios[dst])
	}
	if m.radioIdx == nil {
		for _, r := range m.radios {
			if r.id != t.from.id {
				m.deliverTo(t, r)
			}
		}
		return false
	}
	// Candidate receivers are the radios indexed within reception range
	// of the sender, widened by IndexSlack to cover movement since
	// their cells were last refreshed. The ids are snapshotted (the
	// deliveries below move entries between cells) and visited in index
	// order, which is deterministic for a given seed but differs from
	// the naive path's id order; the delivered frame set is identical
	// either way.
	m.scratch = m.radioIdx.NearIDs(t.pos, m.cfg.Range+m.cfg.IndexSlack, m.scratch[:0])
	for _, id := range m.scratch {
		if id != t.from.id {
			m.deliverTo(t, m.radios[id])
		}
	}
	return false
}

// deliverTo attempts reception of t at radio r and reports success. As a
// side effect it refreshes r's cached grid cell from the position just
// observed.
func (m *Medium) deliverTo(t *transmission, r *Radio) bool {
	p := r.pos()
	if t.pos.Dist2(p) > m.cfg.Range*m.cfg.Range {
		return false
	}
	if m.radioIdx != nil && m.cfg.IndexSlack > 0 {
		// Lazy refresh: the receiver's position was just observed.
		// Out-of-range candidates are left to the periodic Reindex,
		// which alone bounds staleness to what IndexSlack covers. Zero
		// slack promises static radios (see Config.IndexSlack), where
		// no refresh is ever needed.
		m.radioIdx.Update(r.id, p)
	}
	if m.cfg.DropRx != nil && m.cfg.DropRx(t.from.id, r.id, float64(m.sched.Now()), t.pos, p) {
		m.stats.FaultDrops++
		return false
	}
	if m.corruptedAt(t, r.id, p) {
		m.stats.Collisions++
		return false
	}
	m.stats.Delivered++
	r.recvCount++
	if r.onRecv != nil {
		r.onRecv(t.frame)
	}
	return true
}
