package faults

import (
	"fmt"
	"strings"
	"sync"

	"unitp/internal/sim"
	"unitp/internal/store"
)

// Crash-point injection extends the fault substrate from the network to
// the storage layer: a CrashPlan implements store.CrashHook and decides,
// per backend operation, whether the provider process dies right there.
// Like Plan, it combines probabilistic rates with exactly scheduled
// events and is driven entirely by a dedicated sim.Rand fork, so a crash
// sweep replays bit-identically from its seed. The companion
// RecoveryPolicy decides what the disk looks like after the crash —
// clean loss of the unsynced window, a torn write, or a torn write plus
// trailing garbage — which is the half of crash testing that fsync
// bugs hide in.

// CrashPoint enumerates the provider-lifecycle places a crash can be
// injected. Points are phrased in WAL/snapshot terms rather than raw
// backend ops so sweep tables read like the recovery argument.
type CrashPoint int

// Crash points.
const (
	// CrashNone means no crash.
	CrashNone CrashPoint = iota

	// CrashBeforeAppend fires before a WAL write applies: the record is
	// wholly lost.
	CrashBeforeAppend

	// CrashAfterAppend fires after a WAL write but before any sync: the
	// record sits in the unsynced window and is at the mercy of the
	// recovery tear.
	CrashAfterAppend

	// CrashBeforeSync fires on the fsync boundary, before it applies:
	// everything since the last sync is unsynced.
	CrashBeforeSync

	// CrashAfterSync fires just after an fsync: the WAL is fully
	// durable, but the response carrying the outcome never leaves the
	// provider.
	CrashAfterSync

	// CrashMidSnapshot fires during snapshot rotation (history write or
	// sync, temp-file create, write, sync, rename, or old-generation
	// removal).
	CrashMidSnapshot
)

// crashPoints lists the injectable points for sweeps.
var crashPoints = []CrashPoint{
	CrashBeforeAppend, CrashAfterAppend, CrashBeforeSync, CrashAfterSync, CrashMidSnapshot,
}

// CrashPoints returns the injectable crash points in sweep order.
func CrashPoints() []CrashPoint {
	return append([]CrashPoint(nil), crashPoints...)
}

// String names the point for tables.
func (c CrashPoint) String() string {
	switch c {
	case CrashNone:
		return "none"
	case CrashBeforeAppend:
		return "before-append"
	case CrashAfterAppend:
		return "after-append"
	case CrashBeforeSync:
		return "before-sync"
	case CrashAfterSync:
		return "after-sync"
	case CrashMidSnapshot:
		return "mid-snapshot"
	default:
		return fmt.Sprintf("crash(%d)", int(c))
	}
}

// classify maps a raw backend event to the crash point it realizes, or
// CrashNone for events outside the model (reads, closes).
func classify(ev store.CrashEvent) CrashPoint {
	// Snapshot rotation touches the history file, temp files, renames,
	// creates of the new WAL, and removals of the old generation; any of
	// those is "mid-snapshot". WAL data-path ops are writes and syncs on
	// the current wal-*.log.
	switch ev.Op {
	case store.OpCreate, store.OpRename, store.OpRemove:
		return CrashMidSnapshot
	case store.OpWrite:
		if !isWAL(ev.Name) {
			return CrashMidSnapshot
		}
		if ev.Phase == store.PhaseBefore {
			return CrashBeforeAppend
		}
		return CrashAfterAppend
	case store.OpSync:
		if !isWAL(ev.Name) {
			return CrashMidSnapshot
		}
		if ev.Phase == store.PhaseBefore {
			return CrashBeforeSync
		}
		return CrashAfterSync
	default:
		return CrashNone
	}
}

// isWAL reports whether the file is a WAL segment; every other file
// that sees Write/Sync (snapshot temp files, the history file) is
// written only by a rotation.
func isWAL(name string) bool {
	return strings.HasPrefix(name, "wal-")
}

// CrashRates holds per-point crash probabilities, evaluated when an
// operation matching the point occurs.
type CrashRates struct {
	// BeforeAppend fires on a WAL write, before it applies.
	BeforeAppend float64

	// AfterAppend fires on a WAL write, after it applies (unsynced).
	AfterAppend float64

	// BeforeSync fires on a WAL fsync, before it applies.
	BeforeSync float64

	// AfterSync fires on a WAL fsync, after it applies.
	AfterSync float64

	// MidSnapshot fires on any snapshot-rotation operation.
	MidSnapshot float64
}

// UniformCrash spreads one per-operation crash probability evenly over
// every crash point — the sweep axis for F10.
func UniformCrash(rate float64) CrashRates {
	return CrashRates{
		BeforeAppend: rate, AfterAppend: rate,
		BeforeSync: rate, AfterSync: rate,
		MidSnapshot: rate,
	}
}

// rate returns the probability for one point.
func (r CrashRates) rate(p CrashPoint) float64 {
	switch p {
	case CrashBeforeAppend:
		return r.BeforeAppend
	case CrashAfterAppend:
		return r.AfterAppend
	case CrashBeforeSync:
		return r.BeforeSync
	case CrashAfterSync:
		return r.AfterSync
	case CrashMidSnapshot:
		return r.MidSnapshot
	default:
		return 0
	}
}

// CrashStats counts what a CrashPlan observed and injected.
type CrashStats struct {
	// Consulted counts hook consultations (classifiable ops only).
	Consulted int

	// Crashes counts injected crashes, by point.
	Crashes map[CrashPoint]int
}

// Total sums injected crashes across points.
func (s CrashStats) Total() int {
	n := 0
	for _, v := range s.Crashes {
		n += v
	}
	return n
}

// CrashPlan is a deterministic crash schedule implementing
// store.CrashHook via its Hook method. Safe for concurrent use.
//
// A plan is disarmed while the provider is being restored (recovery
// re-drives the same backend ops and must not crash recursively); Arm
// re-enables it for the next run segment.
type CrashPlan struct {
	mu        sync.Mutex
	rng       *sim.Rand
	rates     CrashRates
	scheduled map[CrashPoint]map[int]bool // point -> occurrence index -> crash
	seen      map[CrashPoint]int
	armed     bool
	stats     CrashStats
}

// NewCrashPlan builds a plan with probabilistic per-point rates. The
// rng must be dedicated to this plan (fork it from the experiment
// root). The plan starts armed.
func NewCrashPlan(rng *sim.Rand, rates CrashRates) *CrashPlan {
	if rng == nil {
		rng = sim.NewRand(0xC4A5)
	}
	return &CrashPlan{
		rng:       rng,
		rates:     rates,
		scheduled: map[CrashPoint]map[int]bool{},
		seen:      map[CrashPoint]int{},
		armed:     true,
		stats:     CrashStats{Crashes: map[CrashPoint]int{}},
	}
}

// ScheduleCrash registers an exact injection: the n-th occurrence
// (0-based) of the given crash point crashes, regardless of rates.
func (p *CrashPlan) ScheduleCrash(point CrashPoint, occurrence int) *CrashPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scheduled[point] == nil {
		p.scheduled[point] = map[int]bool{}
	}
	p.scheduled[point][occurrence] = true
	return p
}

// Arm enables crash injection.
func (p *CrashPlan) Arm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = true
}

// Disarm suspends crash injection (used while restoring a provider so
// recovery's own backend traffic cannot crash recursively).
func (p *CrashPlan) Disarm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = false
}

// Stats returns a copy of the crash counters.
func (p *CrashPlan) Stats() CrashStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := CrashStats{Consulted: p.stats.Consulted, Crashes: map[CrashPoint]int{}}
	for k, v := range p.stats.Crashes {
		out.Crashes[k] = v
	}
	return out
}

// Hook implements store.CrashHook.
func (p *CrashPlan) Hook(ev store.CrashEvent) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	point := classify(ev)
	if point == CrashNone {
		return false
	}
	idx := p.seen[point]
	p.seen[point]++
	if !p.armed {
		return false
	}
	p.stats.Consulted++
	crash := p.scheduled[point][idx]
	if !crash {
		rate := p.rates.rate(point)
		// Always draw when a rate is configured so the stream position
		// depends only on the operation sequence, not on outcomes.
		if rate > 0 && p.rng.Float64() < rate {
			crash = true
		}
	}
	if crash {
		p.stats.Crashes[point]++
	}
	return crash
}

// RecoveryPolicy decides what the unsynced window of each file looks
// like after a crash, replayed through store.(*MemBackend).Recover.
type RecoveryPolicy struct {
	// TornWrite keeps a random prefix of the unsynced bytes (a write
	// that made it partway to the platter) instead of losing them all.
	TornWrite bool

	// TrailingGarbage appends a short burst of random bytes after the
	// kept prefix (reordered sector trash).
	TrailingGarbage bool
}

// Tear returns the Recover callback realizing the policy, driven by
// rng. A zero policy loses every unsynced byte.
func (rp RecoveryPolicy) Tear(rng *sim.Rand) func(name string, pending []byte) []byte {
	if rng == nil {
		rng = sim.NewRand(0x7EA2)
	}
	return func(name string, pending []byte) []byte {
		var kept []byte
		if rp.TornWrite && len(pending) > 0 {
			kept = append(kept, pending[:rng.Intn(len(pending)+1)]...)
		}
		if rp.TrailingGarbage {
			kept = append(kept, rng.Bytes(1+rng.Intn(16))...)
		}
		return kept
	}
}
