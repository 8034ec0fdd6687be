package obs

import (
	"sync"
	"time"

	"unitp/internal/sim"
)

// Span is one completed, named phase of a session: suspend, SKINIT,
// PAL run, quote, provider verify, ledger apply, WAL sync, ...
type Span struct {
	// Name identifies the phase.
	Name string

	// Start is when the phase began (session clock).
	Start time.Time

	// Dur is how long it lasted.
	Dur time.Duration
}

// Event is a point annotation on a session: an injected fault, a
// transport retry, a session-level degradation, a crash recovery.
type Event struct {
	// Name identifies the event kind (e.g. "net.drop",
	// "session.retry").
	Name string

	// Detail carries free-form context (attempt number, fault
	// direction, error text).
	Detail string

	// At is when it happened (session clock).
	At time.Time
}

// maxPerTrace bounds spans and events retained per session, so a
// runaway or never-finished session cannot grow without bound; excess
// records are counted, not stored.
const maxPerTrace = 4096

// SessionTrace collects the spans and events of one correlated session.
// All methods are safe for concurrent use and safe on a nil receiver
// (they no-op), so instrumented code never branches on "is tracing on".
type SessionTrace struct {
	tracer  *Tracer
	clock   sim.Clock
	id      SessionID
	adopted bool

	mu      sync.Mutex
	label   string
	started time.Time
	spans   []Span
	events  []Event
	dropped int
	done    bool
}

// ID returns the session's correlation ID (zero on nil).
func (t *SessionTrace) ID() SessionID {
	if t == nil {
		return 0
	}
	return t.id
}

// Adopted reports whether this trace was created server-side for a
// remotely minted correlation ID (see Tracer.Adopt).
func (t *SessionTrace) Adopted() bool {
	if t == nil {
		return false
	}
	return t.adopted
}

// SetLabel names the trace for humans ("submit", "recovery", ...).
func (t *SessionTrace) SetLabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// Label returns the trace's human name.
func (t *SessionTrace) Label() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.label
}

// now reads the session clock.
func (t *SessionTrace) now() time.Time { return t.clock.Now() }

// ActiveSpan is an open span; End completes and records it. A nil
// ActiveSpan (from a nil trace) no-ops.
type ActiveSpan struct {
	t     *SessionTrace
	name  string
	start time.Time
}

// StartSpan opens a span now; the caller must End it.
func (t *SessionTrace) StartSpan(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, start: t.now()}
}

// End completes the span and records it on its trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.SpanAt(s.name, s.start, s.t.now().Sub(s.start))
}

// SpanAt records an already-timed span — how back-dated phase
// breakdowns (the PAL launch report) become spans after the fact.
func (t *SessionTrace) SpanAt(name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxPerTrace {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, Dur: dur})
}

// Event records a point annotation now.
func (t *SessionTrace) Event(name, detail string) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= maxPerTrace {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{Name: name, Detail: detail, At: at})
}

// Finish completes the session and moves it into its tracer's completed
// ring. Idempotent; spans recorded after Finish still land on the trace
// object (late provider-side spans on a shared in-process tracer).
func (t *SessionTrace) Finish() {
	if t == nil || t.tracer == nil {
		return
	}
	t.tracer.finish(t)
}

// snapshot copies the record lists for export.
func (t *SessionTrace) snapshot() (label string, spans []Span, events []Event, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.label, append([]Span(nil), t.spans...), append([]Event(nil), t.events...), t.dropped
}

// Events returns a copy of the recorded point events (nil on a nil
// trace).
func (t *SessionTrace) Events() []Event {
	if t == nil {
		return nil
	}
	_, _, events, _ := t.snapshot()
	return events
}

// TracerStats counts tracer activity.
type TracerStats struct {
	// Started counts sessions minted locally.
	Started int
	// Adopted counts sessions created for remote correlation IDs.
	Adopted int
	// Finished counts sessions moved to the completed ring.
	Finished int
	// Evicted counts active sessions force-finished by the active
	// bound.
	Evicted int
}

// Tracer mints and collects session traces. Completed traces live in a
// bounded ring (oldest evicted first); active traces are bounded too —
// sessions abandoned without Finish are force-completed once the active
// set outgrows four times the ring capacity. All methods are safe for
// concurrent use and on a nil receiver.
type Tracer struct {
	capacity int

	mu     sync.Mutex
	nextID uint64
	base   uint64
	active map[SessionID]*SessionTrace
	order  []SessionID // active sessions in creation order
	ring   []*SessionTrace
	stats  TracerStats
}

// NewTracer builds a tracer whose completed ring holds capacity traces
// (default 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{capacity: capacity, active: make(map[SessionID]*SessionTrace)}
}

// SetIDBase salts minted correlation IDs so independent processes do
// not collide. Deterministic experiments derive the salt from their
// seed; commands use entropy.
func (tr *Tracer) SetIDBase(base uint64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.base = base
	tr.mu.Unlock()
}

// StartSession mints a locally owned session trace on the given clock
// (nil clock = wall time). Nil tracer returns a nil trace, whose
// methods all no-op.
func (tr *Tracer) StartSession(clock sim.Clock) *SessionTrace {
	if tr == nil {
		return nil
	}
	if clock == nil {
		clock = sim.WallClock{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	id := SessionID(tr.base ^ tr.nextID)
	t := &SessionTrace{tracer: tr, clock: clock, id: id, started: clock.Now()}
	tr.stats.Started++
	tr.registerLocked(t)
	return t
}

// Adopt returns the active trace for a remotely minted correlation ID,
// creating one (marked adopted) on first sight — the provider side of
// propagation.
func (tr *Tracer) Adopt(id SessionID, clock sim.Clock) *SessionTrace {
	if tr == nil {
		return nil
	}
	if clock == nil {
		clock = sim.WallClock{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t, ok := tr.active[id]; ok {
		return t
	}
	t := &SessionTrace{tracer: tr, clock: clock, id: id, adopted: true, started: clock.Now()}
	tr.stats.Adopted++
	tr.registerLocked(t)
	return t
}

// Lookup returns the active trace for id, or nil — the transport's way
// to annotate sessions it only knows by header.
func (tr *Tracer) Lookup(id SessionID) *SessionTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.active[id]
}

// Event annotates the active session id, if any.
func (tr *Tracer) Event(id SessionID, name, detail string) {
	tr.Lookup(id).Event(name, detail)
}

// registerLocked tracks a new active trace and enforces the active
// bound. Caller holds tr.mu.
func (tr *Tracer) registerLocked(t *SessionTrace) {
	tr.active[t.id] = t
	tr.order = append(tr.order, t.id)
	for len(tr.active) > 4*tr.capacity {
		// Force-finish the oldest still-active session.
		var oldest *SessionTrace
		for len(tr.order) > 0 {
			id := tr.order[0]
			tr.order = tr.order[1:]
			if got, ok := tr.active[id]; ok {
				oldest = got
				break
			}
		}
		if oldest == nil {
			break
		}
		tr.stats.Evicted++
		tr.finishLocked(oldest)
	}
}

// finish moves a trace to the completed ring exactly once.
func (tr *Tracer) finish(t *SessionTrace) {
	t.mu.Lock()
	already := t.done
	t.done = true
	t.mu.Unlock()
	if already {
		return
	}
	tr.mu.Lock()
	tr.finishLocked(t)
	tr.mu.Unlock()
}

// finishLocked records t as completed. Caller holds tr.mu; t.done may
// be set by the caller (eviction path sets it here).
func (tr *Tracer) finishLocked(t *SessionTrace) {
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
	delete(tr.active, t.id)
	tr.stats.Finished++
	tr.ring = append(tr.ring, t)
	if over := len(tr.ring) - tr.capacity; over > 0 {
		tr.ring = append([]*SessionTrace(nil), tr.ring[over:]...)
	}
}

// Completed returns up to n of the most recently completed traces,
// oldest first (n <= 0 means all retained).
func (tr *Tracer) Completed(n int) []*SessionTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := tr.ring
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return append([]*SessionTrace(nil), out...)
}

// All returns every retained trace — completed ring plus still-active
// sessions — oldest completed first. Exports use it so an aborted run
// still shows its in-flight sessions.
func (tr *Tracer) All() []*SessionTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := append([]*SessionTrace(nil), tr.ring...)
	for _, id := range tr.order {
		if t, ok := tr.active[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

// ActiveCount reports sessions not yet finished.
func (tr *Tracer) ActiveCount() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

// Stats returns a copy of the tracer's counters.
func (tr *Tracer) Stats() TracerStats {
	if tr == nil {
		return TracerStats{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.stats
}
