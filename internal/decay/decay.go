// Package decay implements the cache-decay counter machinery shared by both
// leakage-control techniques (Section 2.3 of the paper): a single global
// counter that counts from zero up to one quarter of the decay interval and
// then starts over, plus a local two-bit counter per cache line. When the
// global counter rolls over, every local counter is incremented; when a
// local counter is incremented past its maximum the line has been idle for
// the full decay interval and is deactivated. Local counters reset to zero
// on every access (the drowsy paper's "noaccess" policy).
//
// The "simple" policy (also from the drowsy paper) ignores access history
// and blankets the whole cache into standby every interval.
//
// # Lazy bookkeeping
//
// The hardware model above is an eager sweep: every rollover walks every
// line. This implementation computes the same counter values, the same
// expiry epochs and the same Stats without the sweep. Each line stores a
// snapshot (snapEpoch, snapCnt) taken at its last state change; its current
// counter is the pure function
//
//	cnt(E) = snapCnt                          if snapCnt >= threshold
//	         min(snapCnt + (E - snapEpoch), threshold)  otherwise
//
// where E is the number of rollovers processed so far (Stats.Rollovers).
// The rollover at which a line first crosses its threshold is therefore
// known the moment the snapshot is taken, and every line files one entry in
// a calendar wheel keyed by that epoch. A rollover pops one wheel bucket:
// entries whose line was touched since filing are re-filed at the line's
// current expiry epoch (a touch can only push expiry later), the rest fire.
// Stats stay exact in aggregate: the machine tracks how many lines are in
// the expired state, so Expiries advances by that count per rollover and
// LocalBumps by lines minus that count — the numbers the sweep would have
// produced.
//
// One behavioral contract is sharpened rather than preserved: the eager
// sweep invoked the expire callback for a saturated line on every rollover,
// relying on the documented idempotence of the callback; the lazy machine
// invokes it exactly once per transition into the expired state (a line
// that is touched or promoted back below threshold and saturates again
// fires again). Within one rollover, callbacks fire in ascending line
// order, exactly like the sweep. The eager implementation is retained in
// the tests as a reference and the equivalence suite drives both across
// policies, per-line adaptive mode and interval boundaries.
package decay

import "sort"

// Policy selects how lines are chosen for deactivation.
type Policy int

// Policies.
const (
	// PolicyNoAccess deactivates a line only after it has been idle for
	// the full decay interval (per-line 2-bit counters).
	PolicyNoAccess Policy = iota
	// PolicySimple deactivates every line each time a full interval
	// elapses, with no per-line history.
	PolicySimple
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == PolicySimple {
		return "simple"
	}
	return "noaccess"
}

// localMax is the saturation value of the per-line 2-bit counter.
const localMax = 3

// selMax is the saturation value of the per-line interval selector in
// per-line adaptive mode (Kaxiras-style: 2 bits choose among four
// exponentially spaced intervals, base << 2*sel).
const selMax = 3

// wheelBuckets sizes the expiry calendar wheel. An entry is filed at most
// threshold+1 epochs ahead (max threshold is 4<<(2*selMax) = 256), so 512
// buckets guarantee a bucket never holds entries for two distinct epochs.
const wheelBuckets = 512

// Machine is the decay-counter state for one cache's lines.
type Machine struct {
	interval uint64
	quarter  uint64
	nextRoll uint64
	rolls    uint64 // rollovers since the interval was last set
	policy   Policy
	lines    int

	// Per-line adaptive mode (Kaxiras et al.): each line owns a 2-bit
	// selector choosing its decay interval from {base, 4*base, 16*base,
	// 64*base}.
	perLine bool
	sel     []uint8

	// Lazy per-line state (unused under PolicySimple, which has no
	// per-line history). snapEpoch/snapCnt are the counter snapshot,
	// expired marks lines whose expire callback has fired and that have
	// not been reset below threshold since, numExpired counts them.
	snapEpoch []uint64
	snapCnt   []uint16
	expired   []bool
	// Calendar wheel of pending expiry epochs: wheelHead[e % wheelBuckets]
	// heads an intrusive singly linked list through wheelNext (-1 ends a
	// chain); filedAt[i] is the epoch line i's entry is filed under. Every
	// non-expired line has exactly one entry, filed no later than its
	// true expiry epoch; expired lines have none.
	wheelHead  []int32
	wheelNext  []int32
	filedAt    []uint64
	fireBuf    []int
	numExpired uint64

	// Stats.
	Rollovers   uint64
	LocalBumps  uint64
	LocalResets uint64
	Expiries    uint64
	Promotions  uint64
	Demotions   uint64
}

// New builds a decay machine for lines cache lines with the given interval
// in cycles. interval == 0 disables decay entirely.
func New(lines int, interval uint64, policy Policy) *Machine {
	m := new(Machine)
	m.Reset(lines, interval, policy, false)
	return m
}

// NewPerLine builds a per-line adaptive decay machine: every line starts at
// the base interval and is promoted toward longer intervals each time decay
// proves premature (an induced miss / slow hit) and demoted when a decayed
// line dies for real. Only the noaccess policy makes sense here.
func NewPerLine(lines int, baseInterval uint64) *Machine {
	m := new(Machine)
	m.Reset(lines, baseInterval, PolicyNoAccess, true)
	return m
}

// Reset returns m to the state New(lines, interval, policy) leaves a
// machine in, or NewPerLine(lines, interval) when perLine is set (which
// implies PolicyNoAccess). The per-line arrays are reused when they are
// large enough, so resetting a machine for the next run of the same cache
// allocates nothing; slices the new mode does not use keep their storage
// at length zero.
func (m *Machine) Reset(lines int, interval uint64, policy Policy, perLine bool) {
	if perLine {
		policy = PolicyNoAccess
	}
	*m = Machine{
		policy:    policy,
		lines:     lines,
		perLine:   perLine,
		sel:       m.sel[:0],
		snapEpoch: m.snapEpoch[:0],
		snapCnt:   m.snapCnt[:0],
		expired:   m.expired[:0],
		wheelHead: m.wheelHead[:0],
		wheelNext: m.wheelNext[:0],
		filedAt:   m.filedAt[:0],
		fireBuf:   m.fireBuf[:0],
	}
	if perLine {
		m.sel = resize(m.sel, lines)
	}
	m.initLazy()
	m.setInterval(interval, 0)
}

// resize returns s at length n with every element zero, reusing its
// storage when the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// initLazy sizes the lazy per-line state and files every line's initial
// expiry entry. PolicySimple keeps no per-line state.
func (m *Machine) initLazy() {
	if m.policy == PolicySimple {
		return
	}
	n := m.lines
	m.snapEpoch = resize(m.snapEpoch, n)
	m.snapCnt = resize(m.snapCnt, n)
	m.expired = resize(m.expired, n)
	m.wheelHead = resize(m.wheelHead, wheelBuckets)
	m.wheelNext = resize(m.wheelNext, n)
	m.filedAt = resize(m.filedAt, n)
	for b := range m.wheelHead {
		m.wheelHead[b] = -1
	}
	for i := 0; i < n; i++ {
		m.wheelNext[i] = -1
	}
	for i := 0; i < n; i++ {
		m.file(i, m.fireEpoch(i))
	}
}

// PerLine reports whether the machine is in per-line adaptive mode.
func (m *Machine) PerLine() bool { return m.perLine }

// lineThreshold returns how many base/4 rollovers of idleness decay line i.
func (m *Machine) lineThreshold(i int) uint16 {
	return uint16(4) << (2 * m.sel[i])
}

// limit is line i's saturation threshold under the current mode.
func (m *Machine) limit(i int) uint16 {
	if m.perLine {
		return m.lineThreshold(i)
	}
	return localMax
}

// counterOf materializes line i's current local counter value from its
// snapshot — the value the eager sweep would hold after Rollovers bumps.
func (m *Machine) counterOf(i int) uint16 {
	l := m.limit(i)
	c := m.snapCnt[i]
	if c >= l {
		return c
	}
	if d := m.Rollovers - m.snapEpoch[i]; d < uint64(l-c) {
		return c + uint16(d)
	}
	return l
}

// fireEpoch is the rollover at which line i's expire callback is due given
// its current snapshot: the first rollover whose pre-bump counter is at or
// past the threshold.
func (m *Machine) fireEpoch(i int) uint64 {
	l := m.limit(i)
	c := m.snapCnt[i]
	if c >= l {
		return m.snapEpoch[i] + 1
	}
	return m.snapEpoch[i] + uint64(l-c) + 1
}

// file inserts line i's wheel entry for epoch fe.
func (m *Machine) file(i int, fe uint64) {
	b := fe & (wheelBuckets - 1)
	m.wheelNext[i] = m.wheelHead[b]
	m.wheelHead[b] = int32(i)
	m.filedAt[i] = fe
}

// unlink removes line i's wheel entry (only needed when an expiry moves
// earlier than the filed epoch — a demotion — so it may walk a chain).
func (m *Machine) unlink(i int) {
	b := m.filedAt[i] & (wheelBuckets - 1)
	p := &m.wheelHead[b]
	for *p >= 0 {
		if int(*p) == i {
			*p = m.wheelNext[i]
			m.wheelNext[i] = -1
			return
		}
		p = &m.wheelNext[*p]
	}
}

// Promote moves line i to the next longer decay interval (its decay was
// premature). No-op outside per-line mode or at saturation.
func (m *Machine) Promote(i int) {
	if !m.perLine || m.sel[i] >= selMax {
		return
	}
	// Materialize under the old threshold, then grow it. The counter value
	// carries over exactly as the eager machine's frozen rollCounts would.
	c := m.counterOf(i)
	m.snapCnt[i] = c
	m.snapEpoch[i] = m.Rollovers
	m.sel[i]++
	m.Promotions++
	if m.expired[i] && c < m.limit(i) {
		// Back below threshold: the line resumes counting and a future
		// saturation is a fresh transition.
		m.expired[i] = false
		m.numExpired--
		m.file(i, m.fireEpoch(i))
	}
	// A non-expired line's expiry only moves later; its stale wheel entry
	// re-files when its old bucket pops.
}

// Demote moves line i to the next shorter decay interval (its decayed
// contents were never missed). No-op outside per-line mode or at zero.
func (m *Machine) Demote(i int) {
	if !m.perLine || m.sel[i] == 0 {
		return
	}
	c := m.counterOf(i)
	m.snapCnt[i] = c
	m.snapEpoch[i] = m.Rollovers
	m.sel[i]--
	m.Demotions++
	if !m.expired[i] {
		// Shrinking the threshold can pull the expiry earlier than the
		// filed entry; the wheel only tolerates late entries, so move it.
		if fe := m.fireEpoch(i); fe < m.filedAt[i] {
			m.unlink(i)
			m.file(i, fe)
		}
	}
	// An expired line's materialized counter is at least the old threshold,
	// which exceeds the new one: it stays expired.
}

// Sel exposes line i's interval selector (tests).
func (m *Machine) Sel(i int) uint8 {
	if !m.perLine {
		return 0
	}
	return m.sel[i]
}

// Interval returns the current decay interval in cycles (0 = disabled).
func (m *Machine) Interval() uint64 { return m.interval }

// Policy returns the machine's deactivation policy.
func (m *Machine) Policy() Policy { return m.policy }

func (m *Machine) setInterval(interval, cycle uint64) {
	m.interval = interval
	if interval == 0 {
		m.quarter = 0
		m.nextRoll = ^uint64(0)
		return
	}
	q := interval / 4
	if q == 0 {
		q = 1
	}
	m.quarter = q
	m.nextRoll = cycle + q
	m.rolls = 0
}

// SetInterval changes the decay interval at runtime (used by the adaptive
// schemes of Section 5.4). Local counters keep their values; the next
// rollover is rescheduled from the current cycle. The rollover epoch
// counter (Stats.Rollovers) stays monotonic across re-sets, so snapshots
// and filed expiry entries remain valid as-is.
func (m *Machine) SetInterval(interval, cycle uint64) {
	m.setInterval(interval, cycle)
}

// Touch resets line i's local counter on an access.
func (m *Machine) Touch(i int) {
	if m.interval == 0 || m.policy == PolicySimple {
		return
	}
	if m.counterOf(i) == 0 {
		return
	}
	m.LocalResets++
	m.snapCnt[i] = 0
	m.snapEpoch[i] = m.Rollovers
	if m.expired[i] {
		m.expired[i] = false
		m.numExpired--
		m.file(i, m.fireEpoch(i))
	}
	// A live line's stale entry re-files lazily when its bucket pops.
}

// Advance processes any global-counter rollovers that occurred up to and
// including cycle. expire is called with each line index whose idle time
// has crossed the decay interval (PolicyNoAccess) or with every line on an
// interval boundary (PolicySimple). Under PolicyNoAccess the callback fires
// exactly once per transition into the expired state; PolicySimple
// re-blankets every interval, so its callback must stay idempotent for
// already-standby lines.
func (m *Machine) Advance(cycle uint64, expire func(line int)) {
	if m.interval == 0 {
		return
	}
	for cycle >= m.nextRoll {
		m.Rollovers++
		m.rolls++
		if m.policy == PolicySimple {
			// Blanket deactivation every full interval (every fourth
			// quarter-rollover).
			if m.rolls%4 == 0 {
				for i := 0; i < m.lines; i++ {
					m.Expiries++
					expire(i)
				}
			}
		} else {
			m.roll(expire)
		}
		m.nextRoll += m.quarter
	}
}

// roll processes one PolicyNoAccess rollover: pop the wheel bucket for the
// new epoch, re-file entries whose line was reset since filing, fire the
// rest in ascending line order, and advance the aggregate stats by what the
// eager sweep would have counted.
func (m *Machine) roll(expire func(line int)) {
	e := m.Rollovers
	b := e & (wheelBuckets - 1)
	j := m.wheelHead[b]
	m.wheelHead[b] = -1
	m.fireBuf = m.fireBuf[:0]
	for j >= 0 {
		i := int(j)
		j = m.wheelNext[i]
		m.wheelNext[i] = -1
		if fe := m.fireEpoch(i); fe > e {
			m.file(i, fe) // touched since filing: expiry moved later
		} else {
			m.fireBuf = append(m.fireBuf, i)
		}
	}
	if len(m.fireBuf) > 0 {
		// Chain order is filing order; the eager sweep fired in ascending
		// line order and downstream effects (decay writebacks into the next
		// level) are order-sensitive, so sort before firing.
		sort.Ints(m.fireBuf)
		for _, i := range m.fireBuf {
			if l := m.limit(i); m.snapCnt[i] < l {
				m.snapCnt[i] = l
			}
			m.snapEpoch[i] = e
			m.expired[i] = true
			m.numExpired++
			expire(i)
		}
	}
	// Aggregate bookkeeping: the sweep counted an expiry per at-threshold
	// line and a bump for every other line, each rollover.
	m.Expiries += m.numExpired
	m.LocalBumps += uint64(m.lines) - m.numExpired
}

// Counter exposes line i's local counter value (tests, adaptive probes).
// Per-line adaptive machines keep their counts in rollover units instead;
// as before, Counter reports 0 for them.
func (m *Machine) Counter(i int) uint8 {
	if m.perLine || m.policy == PolicySimple {
		return 0
	}
	return uint8(m.counterOf(i))
}

// NextRollover returns the cycle of the next global-counter rollover —
// the only cycle at which Advance does any work. With decay disabled it
// returns the "never" sentinel (^uint64(0)). The event-driven core uses
// this to skip Advance calls (and whole idle regions) between rollovers
// without perturbing expire ordering: calling Advance exactly at the
// returned cycle is indistinguishable from calling it every cycle.
func (m *Machine) NextRollover() uint64 { return m.nextRoll }
