package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unitp/internal/core"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// ShardConfig assembles one shard: a primary provider, its durable
// store, and follower replicas wired up over replication links.
type ShardConfig struct {
	// Index is the shard's position in the fleet.
	Index int

	// Epoch is the shard's starting epoch for a virgin deployment
	// (defaults to 1). Every failover increments it; providers and
	// replication frames carry it so a deposed primary is refused
	// everywhere. On a restart over durable backends the persisted
	// manifest's epoch wins — the shard resumes the lineage it last
	// promoted, not the one it was born with.
	Epoch uint64

	// Followers is how many replicas a virgin shard starts with. On a
	// restart the manifest's recorded replica set wins.
	Followers int

	// NewBackend opens the durable backend for one role: "primary",
	// "follower-<i>", or "manifest" (the shard's restart pointer). Each
	// role gets its own independent storage.
	NewBackend func(role string) (store.Backend, error)

	// BuildPrimary constructs the shard's first primary (keys, PAL
	// approvals, seeded accounts) at the given epoch, without a store
	// attached — the shard attaches one from NewBackend("primary").
	BuildPrimary func(epoch uint64) (*core.Provider, error)

	// RestorePrimary rebuilds a provider from a follower's durable
	// segment at the given epoch — it must run core.RestoreProvider and
	// re-apply configuration that is not state (keys, PAL approvals).
	RestorePrimary func(epoch uint64, st *store.Store) (*core.Provider, error)

	// NewLink builds the replication transport to one follower. Nil
	// defaults to netsim.Direct (in-process, no faults). Fault-injected
	// fleets pass a netsim.Pipe carrying the plan's LinkInjector.
	NewLink func(shard, follower int, h netsim.Handler) netsim.Transport

	// Plan, when non-nil, schedules primary kills at commit offsets.
	// (Link partitions and slowdowns ride inside NewLink's transports.)
	Plan *faults.FleetPlan

	// Metrics, when non-nil, receives per-shard replication gauges and
	// failover counters. Tracer, when non-nil, receives failover trace
	// sessions. Clock times failovers (defaults to a virtual clock).
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Clock   sim.Clock
}

// Shard is one partition of the fleet: a primary provider whose commit
// hook synchronously ships every committed WAL group to the shard's
// followers, and the failover machinery that promotes a follower when
// the primary dies.
type Shard struct {
	cfg      ShardConfig
	manifest store.Backend // the shard's durable restart pointer

	mu        sync.RWMutex
	epoch     uint64
	primary   *core.Provider
	rep       *replicator
	followers []*Follower
	failovers int

	// activeRole is the backend role holding the primary lineage;
	// nextFollower is the lowest follower index never yet used. Both
	// are persisted in the manifest so restarts resume the promoted
	// lineage and never reuse a follower's backend role.
	activeRole   string
	nextFollower int
}

// rolePrimary is the backend role a shard's first primary journals to.
const rolePrimary = "primary"

// followerRole names follower i's backend role.
func followerRole(i int) string { return fmt.Sprintf("follower-%d", i) }

// NewShard builds a shard. On virgin backends it seeds a fresh primary,
// bootstraps the followers, and records the topology in the shard
// manifest. On backends that already hold state (a process restart) it
// follows the manifest to the role owning the current lineage — which
// after a failover is a promoted follower's role, never the deposed
// primary's — and restores from that segment at the recorded epoch.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewVirtualClock()
	}
	if cfg.NewBackend == nil {
		return nil, fmt.Errorf("fleet: shard %d: NewBackend is required", cfg.Index)
	}
	if cfg.BuildPrimary == nil || cfg.RestorePrimary == nil {
		return nil, fmt.Errorf("fleet: shard %d: BuildPrimary and RestorePrimary are required", cfg.Index)
	}

	s := &Shard{cfg: cfg, epoch: cfg.Epoch}

	mb, err := cfg.NewBackend(manifestRole)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: manifest backend: %w", cfg.Index, err)
	}
	s.manifest = mb
	man, found, err := readManifest(mb)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: read manifest: %w", cfg.Index, err)
	}

	var prov *core.Provider
	if found {
		prov, err = s.restoreFromManifest(man)
		if err != nil {
			return nil, err
		}
	} else {
		prov, err = s.bootstrapFresh()
		if err != nil {
			return nil, err
		}
	}

	if err := s.wirePrimaryLocked(prov, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// restoreFromManifest resumes the lineage the manifest records: the
// active role's segment at the recorded epoch, with the recorded
// replica set. The deposed primary's role (if any) is never opened —
// its segment is a stale lineage whose replay would discard
// client-acknowledged post-failover commits.
func (s *Shard) restoreFromManifest(man shardManifest) (*core.Provider, error) {
	s.epoch = man.Epoch
	s.activeRole = man.Active
	s.nextFollower = man.NextFollower

	backend, err := s.cfg.NewBackend(man.Active)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: %s backend: %w", s.cfg.Index, man.Active, err)
	}
	st, err := store.Open(backend)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: open %s store: %w", s.cfg.Index, man.Active, err)
	}
	if st.Snapshot() == nil {
		return nil, fmt.Errorf("fleet: shard %d: manifest names role %q (epoch %d) but it holds no durable state",
			s.cfg.Index, man.Active, man.Epoch)
	}
	prov, err := s.cfg.RestorePrimary(s.epoch, st)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: restore primary: %w", s.cfg.Index, err)
	}

	for _, idx := range man.Followers {
		fb, err := s.cfg.NewBackend(followerRole(idx))
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: follower %d backend: %w", s.cfg.Index, idx, err)
		}
		s.followers = append(s.followers, NewFollower(s.cfg.Index, idx, fb))
	}
	return prov, nil
}

// bootstrapFresh builds the shard's first life: primary in the
// "primary" role, followers 0..Followers-1, and the initial manifest.
// A primary-role segment with no manifest (a data dir written before
// manifests existed, or a crash in the narrow window between the first
// snapshot and the first manifest write) is still honored: no failover
// can have happened without a manifest write, so the primary role is
// the only lineage there is.
func (s *Shard) bootstrapFresh() (*core.Provider, error) {
	cfg := s.cfg
	s.activeRole = rolePrimary
	s.nextFollower = cfg.Followers

	backend, err := cfg.NewBackend(rolePrimary)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: primary backend: %w", cfg.Index, err)
	}
	st, err := store.Open(backend)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: open primary store: %w", cfg.Index, err)
	}
	var prov *core.Provider
	if st.Snapshot() != nil {
		prov, err = cfg.RestorePrimary(s.epoch, st)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: restore primary: %w", cfg.Index, err)
		}
	} else {
		prov, err = cfg.BuildPrimary(s.epoch)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: build primary: %w", cfg.Index, err)
		}
		if err := prov.AttachStore(st); err != nil {
			return nil, fmt.Errorf("fleet: shard %d: attach store: %w", cfg.Index, err)
		}
	}

	for i := 0; i < cfg.Followers; i++ {
		fb, err := cfg.NewBackend(followerRole(i))
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: follower %d backend: %w", cfg.Index, i, err)
		}
		s.followers = append(s.followers, NewFollower(cfg.Index, i, fb))
	}

	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return prov, nil
}

// writeManifestLocked persists the shard's current topology (epoch,
// active lineage role, replica set, next follower index). Caller holds
// s.mu or is inside NewShard.
func (s *Shard) writeManifestLocked() error {
	idxs := make([]int, len(s.followers))
	for i, f := range s.followers {
		idxs[i] = f.Index()
	}
	m := shardManifest{
		Epoch:        s.epoch,
		Active:       s.activeRole,
		Followers:    idxs,
		NextFollower: s.nextFollower,
	}
	if err := writeManifest(s.manifest, m); err != nil {
		return fmt.Errorf("fleet: shard %d: write manifest: %w", s.cfg.Index, err)
	}
	return nil
}

// wirePrimaryLocked installs prov as the shard's primary at the current
// epoch: builds replication links to every live follower, bootstraps
// them from the primary's segment at stream offset upTo, and arms the
// commit hook. Caller holds s.mu (or is inside NewShard).
func (s *Shard) wirePrimaryLocked(prov *core.Provider, upTo uint64) error {
	rep := &replicator{
		shard:   s.cfg.Index,
		epoch:   s.epoch,
		offset:  upTo,
		metrics: s.cfg.Metrics,
		clock:   s.cfg.Clock,
	}
	seg, err := prov.Store().ReadSegment()
	if err != nil {
		return fmt.Errorf("fleet: shard %d: read primary segment: %w", s.cfg.Index, err)
	}
	boot := encodeSegmentBootstrap(s.epoch, upTo, seg)
	for _, f := range s.followers {
		link := s.newLink(f)
		if err := rep.bootstrap(link, f.Index(), boot); err != nil {
			return err
		}
	}

	epoch := s.epoch
	plan := s.cfg.Plan
	shard := s.cfg.Index
	prov.SetCommitHook(func(groups [][]byte) error {
		if plan != nil && plan.OnCommit(shard, faults.KillBeforeShip, len(groups)) {
			return fmt.Errorf("%w: shard %d primary (epoch %d) before shipping", faults.ErrKilled, shard, epoch)
		}
		if err := rep.ship(groups); err != nil {
			return err
		}
		if plan != nil && plan.OnCommit(shard, faults.KillAfterShip, len(groups)) {
			return fmt.Errorf("%w: shard %d primary (epoch %d) after shipping", faults.ErrKilled, shard, epoch)
		}
		return nil
	})

	s.primary = prov
	s.rep = rep
	return nil
}

// newLink builds the replication transport to one follower.
func (s *Shard) newLink(f *Follower) netsim.Transport {
	if s.cfg.NewLink != nil {
		return s.cfg.NewLink(s.cfg.Index, f.Index(), f.Handle)
	}
	return netsim.NewDirect(f.Handle)
}

// Handle routes one client request to the shard's current primary
// (netsim.Handler).
func (s *Shard) Handle(req []byte) ([]byte, error) {
	s.mu.RLock()
	p := s.primary
	s.mu.RUnlock()
	return p.Handle(req)
}

// Epoch returns the shard's current epoch.
func (s *Shard) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Primary returns the shard's current primary provider (for health,
// audit verification, and experiment oracles).
func (s *Shard) Primary() *core.Provider {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.primary
}

// Failovers returns how many promotions the shard has performed.
func (s *Shard) Failovers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failovers
}

// LinkHealth reports each replication link's acked offset, lag behind
// the primary's frontier, and last-ack time — the admin plane's
// per-link view of replication freshness.
func (s *Shard) LinkHealth() []LinkHealth {
	s.mu.RLock()
	rep := s.rep
	s.mu.RUnlock()
	if rep == nil {
		return nil
	}
	return rep.health()
}

// FollowerApplied returns each live follower's replication offset, in
// follower order — the shard's replication frontier.
func (s *Shard) FollowerApplied() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(s.followers))
	for i, f := range s.followers {
		out[i] = f.Applied()
	}
	return out
}

// Failover promotes the most caught-up follower to primary, fencing the
// deposed epoch. observedEpoch is the epoch the caller saw failing;
// if the shard has already moved past it the call is a no-op (another
// caller won the race), making failover idempotent under concurrent
// routing.
func (s *Shard) Failover(observedEpoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch > observedEpoch {
		return nil // already failed over past that epoch
	}

	start := s.cfg.Clock.Now()
	tr := s.cfg.Tracer.StartSession(s.cfg.Clock)
	tr.SetLabel(fmt.Sprintf("failover-shard%d", s.cfg.Index))
	defer tr.Finish()

	// Fence the deposed primary first: even if it is still running (a
	// partition-triggered failover, not a crash), it can no longer
	// answer clients — and its stale epoch means no follower will ack
	// it, so it could not have answered anyway. Defense in depth.
	old := s.primary
	oldEpoch := s.epoch
	if old != nil {
		old.Fence()
		tr.Event("failover.fence", fmt.Sprintf("epoch=%d fenced", oldEpoch))
	}

	// Pick the most caught-up follower: max applied replication offset.
	best := -1
	var bestApplied uint64
	for i, f := range s.followers {
		a := f.Applied()
		tr.Event("failover.candidate", fmt.Sprintf("follower=%d applied=%d", f.Index(), a))
		if best == -1 || a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best == -1 {
		tr.Event("failover.failed", "no follower available")
		return fmt.Errorf("%w: shard %d", ErrNoFollower, s.cfg.Index)
	}

	newEpoch := oldEpoch + 1
	chosen := s.followers[best]
	tr.Event("failover.promote", fmt.Sprintf("follower=%d applied=%d epoch=%d", chosen.Index(), bestApplied, newEpoch))

	sp := tr.StartSpan("failover.restore")
	prov, err := chosen.Promote(func(st *store.Store) (*core.Provider, error) {
		return s.cfg.RestorePrimary(newEpoch, st)
	})
	sp.End()
	if err != nil {
		tr.Event("failover.failed", err.Error())
		return fmt.Errorf("fleet: shard %d failover: %w", s.cfg.Index, err)
	}

	// The promoted follower leaves the replica set; the survivors are
	// re-bootstrapped from the new primary's freshly rotated segment at
	// the promoted offset.
	survivors := make([]*Follower, 0, len(s.followers)-1)
	for i, f := range s.followers {
		if i != best {
			survivors = append(survivors, f)
		}
	}
	s.followers = survivors
	s.epoch = newEpoch
	s.failovers++
	s.activeRole = followerRole(chosen.Index())

	// The manifest must name the new lineage before the promoted
	// primary answers anyone: a restart with a stale manifest would
	// reopen the deposed primary's segment and silently discard every
	// commit the new lineage acknowledged.
	if err := s.writeManifestLocked(); err != nil {
		tr.Event("failover.failed", err.Error())
		return err
	}

	if err := s.wirePrimaryLocked(prov, bestApplied); err != nil {
		tr.Event("failover.failed", err.Error())
		return err
	}

	d := s.cfg.Clock.Now().Sub(start)
	tr.Event("failover.done", fmt.Sprintf("epoch=%d followers=%d duration=%s", newEpoch, len(s.followers), d))
	s.cfg.Metrics.Counter(fmt.Sprintf("fleet.shard%d.failovers", s.cfg.Index)).Inc()
	s.cfg.Metrics.Observe("fleet.failover_latency", d)
	return nil
}

// AddFollower enlists a fresh follower on a never-used backend role,
// bootstraps it from the current primary, and adds it to the replica
// set — how a shard regains redundancy after a failover consumed a
// replica. The role index is a monotonic counter (persisted in the
// manifest), never derived from the current set, so no two followers
// in the shard's history share a backend directory.
func (s *Shard) AddFollower() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.nextFollower
	backend, err := s.cfg.NewBackend(followerRole(idx))
	if err != nil {
		return fmt.Errorf("fleet: shard %d: add follower: %w", s.cfg.Index, err)
	}
	f := NewFollower(s.cfg.Index, idx, backend)

	// Bootstrap under the primary's quiescence: the replicator's links
	// and offset are otherwise owned by the committer goroutine (the
	// commit hook), and ReadSegment's snapshot+WAL read is only a
	// consistent prefix matching rep.offset while no commit is in
	// flight. Quiesced blocks new state transitions and drains the
	// committer for exactly this window.
	err = s.primary.Quiesced(func() error {
		seg, err := s.primary.Store().ReadSegment()
		if err != nil {
			return fmt.Errorf("fleet: shard %d: add follower: %w", s.cfg.Index, err)
		}
		boot := encodeSegmentBootstrap(s.epoch, s.rep.frontier(), seg)
		return s.rep.bootstrap(s.newLink(f), f.Index(), boot)
	})
	if err != nil {
		return err
	}
	s.nextFollower = idx + 1
	s.followers = append(s.followers, f)
	return s.writeManifestLocked()
}

// replicator ships committed WAL groups from one primary (at one epoch)
// to the shard's followers and tracks acknowledged offsets. Ship runs on
// the committer goroutine (the commit hook, which the committer
// serializes) and link enlistment happens inside Provider.Quiesced, so
// shipping itself is single-threaded; the small mutex exists for the
// admin plane, which reads link positions and last-ack times (LinkHealth)
// concurrently with shipping. A replicator is abandoned with its primary
// on failover.
type replicator struct {
	shard   int
	epoch   uint64
	metrics *obs.Registry
	clock   sim.Clock

	mu     sync.Mutex
	offset uint64 // stream offset of the next group to ship
	links  []repLink
}

// repLink is one follower's replication endpoint: member index, acked
// stream offset, and when the last ack arrived.
type repLink struct {
	member    int
	transport netsim.Transport
	acked     uint64
	lastAck   time.Time
}

// LinkHealth is one replication link's position and freshness, as
// reported on the admin plane (/readyz in fleet mode).
type LinkHealth struct {
	// Member is the follower's member index within the shard.
	Member int

	// Acked is the last stream offset the follower acknowledged.
	Acked uint64

	// Lag is how many committed groups the follower trails the
	// primary's frontier by.
	Lag uint64

	// LastAck is when the follower's most recent ack arrived.
	LastAck time.Time
}

// frontier returns the primary's current stream offset.
func (r *replicator) frontier() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offset
}

// health snapshots every link's position and freshness.
func (r *replicator) health() []LinkHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LinkHealth, len(r.links))
	for i, l := range r.links {
		out[i] = LinkHealth{Member: l.member, Acked: l.acked, Lag: r.offset - l.acked, LastAck: l.lastAck}
	}
	return out
}

// bootstrap ships a bootstrap frame to a new follower and enlists it.
func (r *replicator) bootstrap(link netsim.Transport, member int, frame []byte) error {
	ack, err := r.exchange(link, member, frame)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.links = append(r.links, repLink{member: member, transport: link, acked: ack.Applied, lastAck: r.now()})
	r.mu.Unlock()
	return nil
}

// members returns the member indices currently enlisted on links.
func (r *replicator) members() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.links))
	for i, l := range r.links {
		out[i] = l.member
	}
	return out
}

// ship sends one committed batch to every follower and waits for all
// acknowledgements. Any failure is fatal to the primary: the committer
// kills it rather than answer half-replicated.
func (r *replicator) ship(groups [][]byte) error {
	r.mu.Lock()
	frame := encodeAppend(appendFrame{Epoch: r.epoch, From: r.offset, Groups: groups})
	target := r.offset + uint64(len(groups))
	n := len(r.links)
	r.mu.Unlock()
	r.metrics.Counter(fmt.Sprintf("fleet.shard%d.shipped_groups", r.shard)).Add(int64(len(groups)))
	for i := 0; i < n; i++ {
		r.mu.Lock()
		l := r.links[i]
		r.mu.Unlock()
		ack, err := r.exchange(l.transport, l.member, frame)
		if err != nil {
			r.gauge(target)
			return err
		}
		r.mu.Lock()
		r.links[i].acked = ack.Applied
		r.links[i].lastAck = r.now()
		r.mu.Unlock()
		r.metrics.Counter(fmt.Sprintf("fleet.shard%d.acked_groups", r.shard)).Add(int64(len(groups)))
	}
	r.mu.Lock()
	r.offset = target
	r.mu.Unlock()
	r.gauge(target)
	return nil
}

// exchange performs one replication round trip and decodes the ack,
// translating refusal statuses into fleet errors. Round-trip time feeds
// the fleet.ship_rtt histogram; a fencing refusal bumps
// fleet.fenced_frames — the admin-plane signal that a zombie primary is
// being refused somewhere.
func (r *replicator) exchange(t netsim.Transport, member int, frame []byte) (*ackFrame, error) {
	start := r.now()
	resp, err := t.RoundTrip(frame)
	if err != nil {
		if code, ok := remoteCode(err); ok && code == netsim.ErrCodeFenced {
			// The refusal arrived at the socket edge (role handshake),
			// before the follower's ack discipline even saw the frame.
			r.metrics.Counter("fleet.fenced_frames").Inc()
			return nil, fmt.Errorf("%w: %w: shard %d follower %d: %w",
				ErrReplication, ErrStaleEpoch, r.shard, member, err)
		}
		return nil, fmt.Errorf("%w: shard %d follower %d: %w", ErrReplication, r.shard, member, err)
	}
	r.metrics.Observe("fleet.ship_rtt", r.now().Sub(start))
	_, _, ack, err := decodeRepFrame(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d follower %d: %w", ErrReplication, r.shard, member, err)
	}
	if ack == nil {
		return nil, fmt.Errorf("%w: shard %d follower %d: response was not an ack", ErrReplication, r.shard, member)
	}
	switch ack.Status {
	case ackOK:
		return ack, nil
	case ackFenced:
		r.metrics.Counter("fleet.fenced_frames").Inc()
		return nil, fmt.Errorf("%w: %w: shard %d follower %d serves epoch %d, frame carried %d",
			ErrReplication, ErrStaleEpoch, r.shard, member, ack.Epoch, r.epoch)
	case ackGap:
		return nil, fmt.Errorf("%w: %w: shard %d follower %d applied %d, frame started past it",
			ErrReplication, ErrOffsetGap, r.shard, member, ack.Applied)
	default:
		return nil, fmt.Errorf("%w: shard %d follower %d: unknown ack status %d", ErrReplication, r.shard, member, ack.Status)
	}
}

// now reads the replicator's clock (wall clock when unset).
func (r *replicator) now() time.Time {
	if r.clock == nil {
		return time.Now()
	}
	return r.clock.Now()
}

// gauge publishes the replication lag: how many committed groups the
// slowest follower is behind the primary's frontier.
func (r *replicator) gauge(frontier uint64) {
	r.mu.Lock()
	var lag uint64
	for i := range r.links {
		if d := frontier - r.links[i].acked; d > lag {
			lag = d
		}
	}
	r.mu.Unlock()
	r.metrics.Gauge(fmt.Sprintf("fleet.shard%d.replication_lag", r.shard)).Set(int64(lag))
}

// FailoverTrigger reports whether a request error is one the router
// should answer with a failover: the primary is dead (crashed store,
// injected kill, failed replication, unreachable process) or fenced (a
// stale epoch the router should route past). Remote shards surface the
// same verdicts as wire error codes — fenced and failover frames are
// triggers; ordinary remote handler errors are not.
func FailoverTrigger(err error) bool {
	switch {
	case errors.Is(err, store.ErrCrashed),
		errors.Is(err, core.ErrFenced),
		errors.Is(err, faults.ErrKilled),
		errors.Is(err, ErrReplication),
		errors.Is(err, ErrPrimaryUnreachable):
		return true
	}
	if code, ok := remoteCode(err); ok {
		return code == netsim.ErrCodeFenced || code == netsim.ErrCodeFailover
	}
	return false
}

// failoverDeadline is documentation of intent more than mechanism: a
// shard's failover is synchronous promotion work (restore + re-verify +
// re-bootstrap), and F13 asserts it completes within this budget.
const failoverDeadline = 30 * time.Second
