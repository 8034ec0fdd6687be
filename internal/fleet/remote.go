package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/wire"
)

// RemoteShard is the router's handle on a shard whose members are
// separate OS processes: a supervised wire client pinned to the member
// believed primary, plus the control channel that turns "the primary is
// unreachable or fenced" into a supervised failover — probe every
// member, promote the most caught-up reachable follower at a fresh
// epoch, and repoint. It implements ShardRef, so the router's routing
// and failover-retry logic is identical for in-process and multi-process
// fleets.
type RemoteShard struct {
	shard      int
	members    []MemberAddr
	scheme     cryptoutil.SchemeID
	metrics    *obs.Registry
	logger     *slog.Logger
	ctlTimeout time.Duration

	// epoch is the newest shard epoch the router has observed (from
	// welcomes and probes). Failover(observedEpoch) quotes it back, so
	// concurrent triggers collapse into one promotion.
	epoch atomic.Uint64

	mu        sync.Mutex // serializes failovers and guards client/primary
	client    *wire.Client
	primary   int // index into members
	failovers int
}

// MemberAddr names one shard member process. Addr is the member's wire
// listener (requests, control, and — by default — replication).
// ShipAddr, when set, is the address OTHER members use to ship WAL to
// this member; pointing it at a chaos proxy aims partitions and
// corruption at the replication link while the control plane stays
// reachable.
type MemberAddr struct {
	Member   int
	Addr     string
	ShipAddr string
}

// shipAddr is the address replication peers should dial.
func (m MemberAddr) shipAddr() string {
	if m.ShipAddr != "" {
		return m.ShipAddr
	}
	return m.Addr
}

// RemoteShardConfig assembles a router-side shard handle.
type RemoteShardConfig struct {
	Shard      int
	Members    []MemberAddr
	Primary    int // member id believed primary (default: first member)
	Epoch      uint64
	Scheme     cryptoutil.SchemeID // crypto profile asserted in the router hello (zero = RSA)
	CtlTimeout time.Duration       // per-probe/per-command budget (default 2s)
	Metrics    *obs.Registry
	Logger     *slog.Logger
}

// NewRemoteShard builds the handle; no connection is opened until the
// first request or health check.
func NewRemoteShard(cfg RemoteShardConfig) (*RemoteShard, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: remote shard %d has no members", cfg.Shard)
	}
	if cfg.CtlTimeout <= 0 {
		cfg.CtlTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	rs := &RemoteShard{
		shard:      cfg.Shard,
		members:    cfg.Members,
		scheme:     cfg.Scheme,
		metrics:    cfg.Metrics,
		logger:     cfg.Logger,
		ctlTimeout: cfg.CtlTimeout,
	}
	rs.primary = 0
	for i, m := range cfg.Members {
		if m.Member == cfg.Primary {
			rs.primary = i
		}
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	rs.epoch.Store(cfg.Epoch)
	return rs, nil
}

// Epoch implements ShardRef: the newest epoch observed over the wire.
func (rs *RemoteShard) Epoch() uint64 { return rs.epoch.Load() }

// Failovers reports completed failovers (admin plane / harnesses).
func (rs *RemoteShard) Failovers() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.failovers
}

// Handle implements ShardRef: one request to the believed primary.
// Transport-level failures (conn down, dial refused, response timeout)
// surface as ErrPrimaryUnreachable — a failover trigger; error frames
// from the far side pass through with their wire code intact, so fenced
// and failover codes trip FailoverTrigger while busy/retryable codes
// reach the client unharmed.
func (rs *RemoteShard) Handle(req []byte) ([]byte, error) {
	c, member := rs.requestClient()
	resp, err := c.RoundTrip(req)
	if err == nil {
		return resp, nil
	}
	var remote *netsim.RemoteError
	if errors.As(err, &remote) {
		return nil, err
	}
	if errors.Is(err, wire.ErrPipelineFull) {
		// Local backpressure, not a sick primary.
		return nil, err
	}
	return nil, fmt.Errorf("%w: shard %d member %d: %v", ErrPrimaryUnreachable, rs.shard, member, err)
}

// requestClient returns the live client to the believed primary,
// building it lazily.
func (rs *RemoteShard) requestClient() (*wire.Client, int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.client == nil {
		rs.client = rs.newRequestClient(rs.members[rs.primary])
	}
	return rs.client, rs.members[rs.primary].Member
}

// newRequestClient opens the supervised request channel to one member.
// The role handshake re-runs on every reconnect, carrying the router's
// newest observed epoch: a handshake that lands on a deposed primary
// both deposes it (it demotes on seeing the newer epoch) and tells the
// router to route around it.
func (rs *RemoteShard) newRequestClient(m MemberAddr) *wire.Client {
	return wire.NewClient(wire.ClientConfig{
		Addr: m.Addr,
		Handshake: func(conn net.Conn) error {
			w, err := sendHello(conn, Hello{
				Kind:   HelloRouter,
				Scheme: uint8(rs.scheme),
				Shard:  uint32(rs.shard),
				Epoch:  rs.epoch.Load(),
			})
			if err != nil {
				return err
			}
			rs.observeEpoch(w.Epoch)
			if w.Role != WelcomePrimary {
				return &netsim.RemoteError{
					Msg:  fmt.Sprintf("fleet: member %d answered the router hello as a non-primary", m.Member),
					Code: netsim.ErrCodeFailover,
				}
			}
			return nil
		},
		Metrics: rs.metrics,
	})
}

// observeEpoch ratchets the router's epoch observation upward.
func (rs *RemoteShard) observeEpoch(e uint64) {
	for {
		cur := rs.epoch.Load()
		if e <= cur || rs.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Failover implements ShardRef: promote past observedEpoch unless the
// shard already moved beyond it. The incumbent is probed first so a
// transient blip (one dropped connection) collapses into a no-op; a
// genuinely dead or fenced primary triggers the full protocol.
func (rs *RemoteShard) Failover(observedEpoch uint64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.epoch.Load() > observedEpoch {
		return nil
	}
	inc := rs.members[rs.primary]
	if st, err := Probe(inc.Addr, rs.shard, rs.ctlTimeout); err == nil &&
		st.Role == WelcomePrimary && st.Healthy && !st.Fenced && st.Epoch >= observedEpoch {
		rs.observeEpoch(st.Epoch)
		return nil
	}
	return rs.failoverLocked(observedEpoch)
}

// failoverLocked runs the supervised failover protocol. Caller holds
// rs.mu.
//
//  1. Sweep every member's status over the control channel.
//  2. If some member already serves as a healthy primary past the
//     observation (a concurrent failover won, or a promote this router
//     commanded timed out on the answer but took effect), adopt it.
//  3. Otherwise promote the most caught-up reachable follower at an
//     epoch past everything observed, listing every other member as a
//     survivor — the promote bootstraps the reachable ones and skips
//     the partitioned ones, and a still-live deposed primary among them
//     is deposed by the bootstrap's own handshake.
func (rs *RemoteShard) failoverLocked(observedEpoch uint64) error {
	start := time.Now()
	type probed struct {
		idx int
		st  MemberStatus
	}
	var reachable []probed
	maxEpoch := observedEpoch
	for i, m := range rs.members {
		st, err := Probe(m.Addr, rs.shard, rs.ctlTimeout)
		if err != nil {
			rs.logger.Warn("fleet: member unreachable during failover sweep",
				"shard", rs.shard, "member", m.Member, "err", err)
			continue
		}
		reachable = append(reachable, probed{idx: i, st: st})
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}

	// A healthy primary past the observation already exists: adopt it.
	for _, p := range reachable {
		if p.st.Role == WelcomePrimary && p.st.Healthy && !p.st.Fenced && p.st.Epoch > observedEpoch {
			rs.repointLocked(p.idx, p.st.Epoch)
			rs.logger.Info("fleet: adopted already-promoted primary",
				"shard", rs.shard, "member", rs.members[p.idx].Member, "epoch", p.st.Epoch)
			return nil
		}
	}

	// Most caught-up reachable follower wins; ties break to the lowest
	// member id so concurrent routers converge.
	followers := reachable[:0:0]
	for _, p := range reachable {
		if p.st.Role == WelcomeFollower && p.st.Healthy {
			followers = append(followers, p)
		}
	}
	if len(followers) == 0 {
		return fmt.Errorf("%w: shard %d has no reachable follower", ErrNoFollower, rs.shard)
	}
	sort.Slice(followers, func(a, b int) bool {
		if followers[a].st.Applied != followers[b].st.Applied {
			return followers[a].st.Applied > followers[b].st.Applied
		}
		return rs.members[followers[a].idx].Member < rs.members[followers[b].idx].Member
	})
	winner := followers[0]
	newEpoch := maxEpoch + 1

	var survivors []PeerAddr
	for i, m := range rs.members {
		if i == winner.idx {
			continue
		}
		survivors = append(survivors, PeerAddr{Member: m.Member, Addr: m.shipAddr()})
	}

	cand := rs.members[winner.idx]
	// Promotion re-bootstraps survivors within the node's promote
	// budget, so give the command room beyond the probe timeout.
	budget := rs.ctlTimeout + time.Duration(len(survivors))*5*time.Second
	resp, _, err := ctlRoundTrip(cand.Addr, rs.shard, encodePromote(promoteCmd{
		NewEpoch: newEpoch, Survivors: survivors,
	}), budget)
	if err != nil {
		return fmt.Errorf("fleet: shard %d: promoting member %d to epoch %d: %w",
			rs.shard, cand.Member, newEpoch, err)
	}
	st, err := decodeStatusResp(resp)
	if err != nil {
		return fmt.Errorf("fleet: shard %d: promote response: %w", rs.shard, err)
	}
	rs.repointLocked(winner.idx, st.Epoch)
	rs.failovers++
	if rs.metrics != nil {
		rs.metrics.Counter(fmt.Sprintf("fleet.shard%d.failovers", rs.shard)).Inc()
		rs.metrics.Observe("fleet.failover_latency", time.Since(start))
	}
	rs.logger.Info("fleet: failover complete",
		"shard", rs.shard, "member", cand.Member, "epoch", st.Epoch,
		"applied", st.Applied, "links", len(st.Links), "took", time.Since(start))
	return nil
}

// repointLocked swaps the request channel to a new primary. Caller
// holds rs.mu.
func (rs *RemoteShard) repointLocked(idx int, epoch uint64) {
	if rs.client != nil {
		rs.client.Close()
		rs.client = nil
	}
	rs.primary = idx
	rs.observeEpoch(epoch)
}

// HealthCheck is the warden's periodic pass: verify the primary is
// alive and healthy (failing over if not), stand down any stale primary
// still claiming an older epoch, and re-adopt reachable followers the
// primary is not shipping to — the path a SIGKILLed-then-restarted
// member takes back into the replica set.
func (rs *RemoteShard) HealthCheck() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	observed := rs.epoch.Load()

	inc := rs.members[rs.primary]
	st, err := Probe(inc.Addr, rs.shard, rs.ctlTimeout)
	if err != nil || st.Role != WelcomePrimary || !st.Healthy || st.Fenced {
		rs.logger.Warn("fleet: warden found primary unhealthy",
			"shard", rs.shard, "member", inc.Member, "err", err)
		if foErr := rs.failoverLocked(observed); foErr != nil {
			rs.logger.Warn("fleet: warden failover failed", "shard", rs.shard, "err", foErr)
			return
		}
		inc = rs.members[rs.primary]
		st, err = Probe(inc.Addr, rs.shard, rs.ctlTimeout)
		if err != nil {
			return
		}
	}
	rs.observeEpoch(st.Epoch)

	linked := make(map[int]bool, len(st.Links))
	for _, l := range st.Links {
		linked[l.Member] = true
	}
	for i, m := range rs.members {
		if i == rs.primary {
			continue
		}
		ms, err := Probe(m.Addr, rs.shard, rs.ctlTimeout)
		if err != nil {
			continue // down or partitioned; next pass
		}
		if ms.Role == WelcomePrimary && ms.Epoch < rs.epoch.Load() {
			rs.logger.Warn("fleet: warden demoting stale primary",
				"shard", rs.shard, "member", m.Member, "stale_epoch", ms.Epoch, "epoch", rs.epoch.Load())
			if _, _, err := ctlRoundTrip(m.Addr, rs.shard, encodeDemote(demoteCmd{Epoch: rs.epoch.Load()}), rs.ctlTimeout); err != nil {
				rs.logger.Warn("fleet: warden demote failed", "shard", rs.shard, "member", m.Member, "err", err)
				continue
			}
			ms.Role = WelcomeFollower
		}
		if ms.Role == WelcomeFollower && !linked[m.Member] {
			if _, _, err := ctlRoundTrip(inc.Addr, rs.shard, encodeAdopt(adoptCmd{
				Member: m.Member, Addr: m.shipAddr(),
			}), rs.ctlTimeout+5*time.Second); err != nil {
				rs.logger.Warn("fleet: warden adopt failed", "shard", rs.shard, "member", m.Member, "err", err)
				continue
			}
			rs.logger.Info("fleet: warden re-adopted follower", "shard", rs.shard, "member", m.Member)
		}
	}
}

// Status probes the believed primary live and reports the shard's
// supervision view for the admin plane. err is non-nil when the primary
// cannot be reached (readiness then reports the shard not ready).
func (rs *RemoteShard) Status() (primary MemberStatus, member int, failovers int, err error) {
	rs.mu.Lock()
	inc := rs.members[rs.primary]
	failovers = rs.failovers
	timeout := rs.ctlTimeout
	rs.mu.Unlock()
	st, err := Probe(inc.Addr, rs.shard, timeout)
	return st, inc.Member, failovers, err
}

// Close releases the request channel.
func (rs *RemoteShard) Close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.client != nil {
		rs.client.Close()
		rs.client = nil
	}
}
