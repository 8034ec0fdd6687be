package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/wire"
)

// Node is one shard member running in its own OS process: either the
// shard's primary (a live provider whose commit hook ships WAL groups
// to follower processes over TCP) or a follower (a cold replica applying
// shipped groups into its own durable segment, promotable on command).
//
// The Node owns the member's whole lifecycle across both roles:
//
//   - Every inbound connection opens with the role handshake
//     (Accept): ship and request channels from stale epochs are refused
//     at the socket edge with a fatal fenced error frame; a ship hello
//     from a NEWER epoch deposes a running primary on the spot — it
//     demotes to follower and lets the new primary bootstrap it over
//     the very same connection.
//   - Promotion (ctl) restores a provider from the follower's durable
//     segment at the commanded epoch — core.RestoreProvider underneath,
//     audit chain re-verified — then re-bootstraps the reachable
//     survivors; unreachable ones are skipped (the warden re-adopts
//     them later), so failover completes even while a replication link
//     is partitioned.
//   - Demotion (deposed by handshake, by a follower's fencing ack
//     mid-ship, or by explicit ctl command) fences and kills the local
//     provider, releases its store, and rejoins as a follower awaiting
//     adoption — a deposed primary is never resurrected.
//   - The durable node manifest records (role, epoch) at every
//     transition, so a SIGKILLed member restarts into the role it last
//     held and a deposed primary's restart cannot reopen its stale
//     lineage as primary: its bootstrap attempt is fenced by the
//     followers' handshakes and it demotes before serving anything.
type Node struct {
	cfg      NodeConfig
	logger   *slog.Logger
	manifest store.Backend
	state    store.Backend

	// helloEpoch/helloOffset feed ship-link handshakes. Atomics, not
	// n.mu: the handshake closure runs inside wire.Client (re)connects,
	// which Promote drives while holding n.mu.
	helloEpoch  atomic.Uint64
	helloOffset atomic.Uint64

	mu        sync.Mutex
	role      uint8 // WelcomePrimary or WelcomeFollower
	epoch     uint64
	primary   *core.Provider
	rep       *replicator
	links     []*shipLink
	follower  *Follower
	demotions int
}

// NodeConfig assembles one shard-member process.
type NodeConfig struct {
	// Shard and Member identify this process in the fleet topology.
	Shard, Member int

	// StartRole is the role a virgin data dir starts in: "primary" or
	// "follower". Once the node manifest exists, the manifest wins.
	StartRole string

	// Scheme is the quote-signature crypto profile this member runs
	// (zero value = RSA). Data-plane hellos from a different profile are
	// refused permanently: a shard must verify — and re-verify from the
	// audit chain — under one profile.
	Scheme cryptoutil.SchemeID

	// Epoch is the starting epoch for a virgin deployment (default 1).
	Epoch uint64

	// Followers are the ship endpoints a starting primary bootstraps
	// and replicates to.
	Followers []PeerAddr

	// NewBackend opens this member's durable backends: role "state"
	// (the WAL + snapshots) and "manifest" (the role/epoch pointer).
	NewBackend func(role string) (store.Backend, error)

	// Build constructs the shard's first primary at the given epoch
	// (keys, PAL approvals, seeded accounts), store not yet attached.
	Build func(epoch uint64) (*core.Provider, error)

	// Restore rebuilds a provider from a durable segment at the given
	// epoch — core.RestoreProvider plus non-state configuration.
	Restore func(epoch uint64, st *store.Store) (*core.Provider, error)

	// KillBeforeShip / KillAfterShip arm deterministic chaos: when the
	// primary's ship frontier crosses the absolute stream offset, the
	// process SIGKILLs itself immediately before (after) shipping the
	// crossing batch. 0 disarms. A promoted primary resumes the stream
	// at its applied offset, so offsets already behind it never fire.
	KillBeforeShip, KillAfterShip uint64

	// ShipRetry paces replication retransmissions over link flaps. The
	// follower's offset dedupe absorbs the duplicates. Zero-valued
	// fields normalize to a tight default (5 attempts, 3 s deadline) —
	// a link dead longer than the deadline kills the primary, which is
	// the fleet's consistency-over-availability contract.
	ShipRetry netsim.RetryPolicy

	// BootWait is the per-peer bootstrap budget when a virgin primary
	// starts (processes start in any order; default 10 s). PromoteWait
	// is the per-survivor budget during promotion (default 2 s — a
	// partitioned survivor is skipped, not waited out).
	BootWait, PromoteWait time.Duration

	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logger  *slog.Logger
	Clock   sim.Clock
}

// shipLink is one follower's replication endpoint: the supervised wire
// client (which re-sends the role handshake on every reconnect) wrapped
// in the ship retry policy.
type shipLink struct {
	member int
	client *wire.Client
	rt     netsim.Transport
}

// Node role names (StartRole and the node manifest).
const (
	NodeRolePrimary  = "primary"
	NodeRoleFollower = "follower"
)

// errNotPrimary marks a request hitting a member that does not serve
// the primary role; classified as a failover frame on the wire.
var errNotPrimary = errors.New("fleet: member is not the primary")

// NewNode starts one shard-member process engine. A virgin data dir
// starts in cfg.StartRole; an existing one resumes the manifest's
// recorded role and epoch. A restarting primary whose lineage was
// superseded while it was down is fenced by its followers' handshakes
// during re-bootstrap and comes up demoted — a follower awaiting
// adoption — instead of resurrecting the stale lineage.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.BootWait <= 0 {
		cfg.BootWait = 10 * time.Second
	}
	if cfg.PromoteWait <= 0 {
		cfg.PromoteWait = 2 * time.Second
	}
	if cfg.ShipRetry.MaxAttempts == 0 {
		cfg.ShipRetry = NodeShipRetry()
	}
	if cfg.NewBackend == nil || cfg.Build == nil || cfg.Restore == nil {
		return nil, fmt.Errorf("fleet: node %d/%d: NewBackend, Build, and Restore are required", cfg.Shard, cfg.Member)
	}

	n := &Node{cfg: cfg, logger: cfg.Logger}

	mb, err := cfg.NewBackend("manifest")
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: manifest backend: %w", cfg.Shard, cfg.Member, err)
	}
	n.manifest = mb
	man, found, err := ReadNodeManifest(mb)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: read manifest: %w", cfg.Shard, cfg.Member, err)
	}

	role, epoch := cfg.StartRole, cfg.Epoch
	if found {
		role, epoch = man.Role, man.Epoch
		n.logger.Info("node resuming manifest role", "role", role, "epoch", epoch)
	}

	sb, err := cfg.NewBackend("state")
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: state backend: %w", cfg.Shard, cfg.Member, err)
	}
	n.state = sb

	switch role {
	case NodeRoleFollower:
		f := NewFollower(cfg.Shard, cfg.Member, sb)
		f.raiseEpoch(epoch)
		n.role, n.epoch, n.follower = WelcomeFollower, epoch, f
		n.helloEpoch.Store(epoch)
		if !found {
			if err := n.writeManifestLocked(); err != nil {
				return nil, err
			}
		}
		return n, nil

	case NodeRolePrimary:
		st, err := store.Open(sb)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d/%d: open state store: %w", cfg.Shard, cfg.Member, err)
		}
		var prov *core.Provider
		if st.Snapshot() != nil {
			prov, err = cfg.Restore(epoch, st)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: restore primary: %w", cfg.Shard, cfg.Member, err)
			}
		} else {
			prov, err = cfg.Build(epoch)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: build primary: %w", cfg.Shard, cfg.Member, err)
			}
			if err := prov.AttachStore(st); err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: attach store: %w", cfg.Shard, cfg.Member, err)
			}
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.role, n.epoch = WelcomePrimary, epoch
		n.helloEpoch.Store(epoch)
		if !found {
			if err := n.writeManifestLocked(); err != nil {
				return nil, err
			}
		}
		// Restart resets the ship stream to 0 and re-bootstraps: the
		// followers' segments are re-seeded from this primary's full
		// durable state, exactly like the in-process restart path. If
		// the lineage was superseded while this process was down, the
		// very first bootstrap is fenced and wireLocked demotes us.
		if err := n.wireLocked(prov, 0, cfg.Followers, cfg.BootWait); err != nil {
			if errors.Is(err, ErrStaleEpoch) {
				n.logger.Warn("deposed primary fenced at rejoin; demoted to follower",
					"epoch", epoch, "now", n.epoch)
				return n, nil
			}
			return nil, err
		}
		return n, nil

	default:
		return nil, fmt.Errorf("fleet: node %d/%d: unknown start role %q", cfg.Shard, cfg.Member, role)
	}
}

// NodeShipRetry is the default replication retry policy: quick, tightly
// bounded retransmissions. A link flap heals transparently (reconnect +
// re-handshake + offset-deduped resend); a link dead past the deadline
// kills the primary.
func NodeShipRetry() netsim.RetryPolicy {
	return netsim.RetryPolicy{
		MaxAttempts:    8,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
		AttemptTimeout: 2 * time.Second,
		Deadline:       3 * time.Second,
	}
}

// wireLocked installs prov as this node's primary: ship links to every
// peer, bootstrap at stream offset upTo, commit hook with the chaos
// kill offsets armed. A peer that fences the bootstrap demotes this
// node (returns ErrStaleEpoch); a peer that stays unreachable past
// perPeerWait is skipped with a loud log — the warden re-adopts it once
// it is back. Caller holds n.mu.
func (n *Node) wireLocked(prov *core.Provider, upTo uint64, peers []PeerAddr, perPeerWait time.Duration) error {
	rep := &replicator{
		shard:   n.cfg.Shard,
		epoch:   n.epoch,
		offset:  upTo,
		metrics: n.cfg.Metrics,
		clock:   n.cfg.Clock,
	}
	n.helloOffset.Store(upTo)

	seg, err := prov.Store().ReadSegment()
	if err != nil {
		return fmt.Errorf("fleet: node %d/%d: read segment: %w", n.cfg.Shard, n.cfg.Member, err)
	}
	boot := encodeSegmentBootstrap(n.epoch, upTo, seg)

	var links []*shipLink
	for _, p := range peers {
		link := n.newShipLink(p)
		err := n.bootstrapPeer(rep, link, boot, perPeerWait)
		switch {
		case err == nil:
			links = append(links, link)
		case errors.Is(err, ErrStaleEpoch):
			// A follower serves a newer lineage: this primary is deposed.
			link.client.Close()
			for _, l := range links {
				l.client.Close()
			}
			n.demoteLocked(0)
			return fmt.Errorf("fleet: node %d/%d: %w", n.cfg.Shard, n.cfg.Member, err)
		default:
			link.client.Close()
			n.count("fleet.bootstrap_skipped")
			n.logger.Warn("follower unreachable during bootstrap; skipped (warden will re-adopt)",
				"member", p.Member, "addr", p.Addr, "err", err)
		}
	}

	n.armHookLocked(prov, rep)
	n.primary = prov
	n.rep = rep
	n.links = links
	return nil
}

// bootstrapPeer retries one follower's bootstrap for up to wait
// (processes start in any order); fencing refusals abort immediately.
func (n *Node) bootstrapPeer(rep *replicator, link *shipLink, boot []byte, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		err := rep.bootstrap(link.rt, link.member, boot)
		if err == nil || errors.Is(err, ErrStaleEpoch) || errors.Is(err, ErrOffsetGap) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// armHookLocked installs the commit hook: deterministic self-SIGKILL at
// the armed stream offsets, synchronous shipping, and demote-on-fence.
func (n *Node) armHookLocked(prov *core.Provider, rep *replicator) {
	kb, ka := n.cfg.KillBeforeShip, n.cfg.KillAfterShip
	prov.SetCommitHook(func(groups [][]byte) error {
		off := rep.frontier()
		next := off + uint64(len(groups))
		if kb > 0 && off < kb && next >= kb {
			n.logger.Error("chaos: self-SIGKILL before ship",
				"shard", n.cfg.Shard, "member", n.cfg.Member, "offset", off, "kill_at", kb)
			selfKill()
		}
		if err := rep.ship(groups); err != nil {
			if errors.Is(err, ErrStaleEpoch) {
				// A follower fenced us mid-run: a newer lineage exists.
				// The hook error kills this provider; the demotion makes
				// the deposition durable and rejoins us as a follower.
				go n.Demote(0)
			}
			return err
		}
		n.helloOffset.Store(rep.frontier())
		if ka > 0 && off < ka && next >= ka {
			n.logger.Error("chaos: self-SIGKILL after ship",
				"shard", n.cfg.Shard, "member", n.cfg.Member, "offset", off, "kill_at", ka)
			selfKill()
		}
		return nil
	})
}

// newShipLink builds the supervised replication client to one peer. The
// role handshake closure reads the node's LIVE epoch and frontier, so
// every reconnect re-asserts the current lineage — a link that dropped
// across a failover can never resume acking at the stale epoch.
func (n *Node) newShipLink(p PeerAddr) *shipLink {
	client := wire.NewClient(wire.ClientConfig{
		Addr:            p.Addr,
		Handshake:       n.shipHandshake(),
		ResponseTimeout: 5 * time.Second,
		// Replication links redial aggressively: the reconnect pause must
		// stay below the ship retry backoff, or a single flap burns the
		// whole retry budget against the backoff window and needlessly
		// kills the primary.
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 25 * time.Millisecond,
		Metrics:      n.cfg.Metrics,
	})
	rt := netsim.NewRetryTransport(client, n.cfg.ShipRetry, sim.WallClock{}, sim.NewRand(uint64(0x5319+p.Member)))
	return &shipLink{member: p.Member, client: client, rt: rt}
}

// shipHandshake is the ship-link role handshake, re-run by wire.Client
// on every (re)connect.
func (n *Node) shipHandshake() func(conn net.Conn) error {
	return func(conn net.Conn) error {
		h := Hello{
			Kind:   HelloShip,
			Scheme: uint8(n.cfg.Scheme),
			Shard:  uint32(n.cfg.Shard),
			Member: uint32(n.cfg.Member),
			Epoch:  n.helloEpoch.Load(),
			Offset: n.helloOffset.Load(),
		}
		w, err := sendHello(conn, h)
		if err != nil {
			return err
		}
		if w.Epoch > h.Epoch {
			// Defense in depth: a welcome from a newer lineage means we
			// are deposed even if the peer chose not to refuse us.
			go n.Demote(w.Epoch)
			return &netsim.RemoteError{
				Msg:  fmt.Sprintf("fleet: peer serves epoch %d, ours is %d", w.Epoch, h.Epoch),
				Code: netsim.ErrCodeFenced,
			}
		}
		return nil
	}
}

// Accept is the node's wire.Server handshake hook: it classifies every
// inbound connection by its Hello and returns the per-connection
// handler, refusing stale epochs at the socket edge.
func (n *Node) Accept(conn net.Conn) (netsim.Handler, error) {
	frame, err := netsim.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("fleet: read hello: %w", err)
	}
	h, err := DecodeHello(frame)
	if err != nil {
		return nil, refuseHello(conn, netsim.ErrCodePermanent, err)
	}
	if int(h.Shard) != n.cfg.Shard {
		return nil, refuseHello(conn, netsim.ErrCodePermanent,
			fmt.Errorf("fleet: hello for shard %d, this member serves shard %d", h.Shard, n.cfg.Shard))
	}
	// Data-plane channels must agree on the crypto profile: a router or
	// shipping primary running a different scheme would hand this member
	// evidence (or an audit chain) it cannot verify. Control channels are
	// exempt — probes and promotions carry no attestation traffic.
	if h.Kind != HelloCtl && h.Scheme != uint8(n.cfg.Scheme) {
		n.count("fleet.scheme_mismatch")
		return nil, refuseHello(conn, netsim.ErrCodePermanent,
			fmt.Errorf("fleet: crypto profile mismatch: hello runs %s, member %d runs %s",
				cryptoutil.SchemeID(h.Scheme), n.cfg.Member, n.cfg.Scheme))
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	floor := n.epochFloorLocked()

	switch h.Kind {
	case HelloShip:
		if n.role == WelcomePrimary {
			if h.Epoch > n.epoch {
				// A newer primary is adopting us: depose ourselves and
				// let it bootstrap us over this very connection.
				n.logger.Warn("deposed by ship handshake from newer epoch",
					"ours", n.epoch, "theirs", h.Epoch, "from_member", h.Member)
				n.demoteLocked(h.Epoch)
			} else {
				n.count("fleet.fenced_frames")
				return nil, refuseHello(conn, netsim.ErrCodeFenced,
					fmt.Errorf("fleet: member %d is primary at epoch %d; refusing ship hello at epoch %d",
						n.cfg.Member, n.epoch, h.Epoch))
			}
		} else if h.Epoch < floor {
			n.count("fleet.fenced_frames")
			return nil, refuseHello(conn, netsim.ErrCodeFenced,
				fmt.Errorf("fleet: member %d serves epoch %d; refusing ship hello at stale epoch %d",
					n.cfg.Member, floor, h.Epoch))
		}
		if err := n.welcomeLocked(conn); err != nil {
			return nil, err
		}
		return n.handleShip, nil

	case HelloRouter:
		if h.Epoch > n.epoch && n.role == WelcomePrimary {
			// The router has observed a newer lineage than ours: deposed.
			n.logger.Warn("deposed by router handshake from newer epoch", "ours", n.epoch, "theirs", h.Epoch)
			n.demoteLocked(h.Epoch)
		}
		if n.role != WelcomePrimary || n.primary == nil {
			return nil, refuseHello(conn, netsim.ErrCodeFailover,
				fmt.Errorf("%w: member %d (epoch %d)", errNotPrimary, n.cfg.Member, floor))
		}
		if n.primary.Fenced() {
			n.count("fleet.fenced_frames")
			return nil, refuseHello(conn, netsim.ErrCodeFenced,
				fmt.Errorf("fleet: member %d primary is fenced at epoch %d", n.cfg.Member, n.epoch))
		}
		if n.primary.Dead() {
			return nil, refuseHello(conn, netsim.ErrCodeFailover,
				fmt.Errorf("fleet: member %d primary is dead at epoch %d", n.cfg.Member, n.epoch))
		}
		if err := n.welcomeLocked(conn); err != nil {
			return nil, err
		}
		return n.handleRequest, nil

	case HelloCtl:
		if err := n.welcomeLocked(conn); err != nil {
			return nil, err
		}
		return n.handleCtl, nil
	}
	return nil, refuseHello(conn, netsim.ErrCodePermanent, fmt.Errorf("fleet: unknown hello kind %d", h.Kind))
}

// welcomeLocked answers an accepted Hello with this member's current
// role, epoch, and stream position.
func (n *Node) welcomeLocked(conn net.Conn) error {
	w := Welcome{Role: n.role, Scheme: uint8(n.cfg.Scheme), Epoch: n.epochFloorLocked()}
	switch {
	case n.role == WelcomePrimary && n.rep != nil:
		w.Applied = n.rep.frontier()
	case n.follower != nil:
		w.Applied = n.follower.Applied()
	}
	if err := netsim.WriteFrame(conn, EncodeWelcome(w)); err != nil {
		return fmt.Errorf("fleet: send welcome: %w", err)
	}
	return nil
}

// epochFloorLocked is the newest epoch this member has accepted: its
// own, or (as a follower) any newer one learned from shipped frames.
func (n *Node) epochFloorLocked() uint64 {
	e := n.epoch
	if n.follower != nil {
		if fe := n.follower.Epoch(); fe > e {
			e = fe
		}
	}
	return e
}

// handleShip serves replication frames on an accepted ship connection.
// The follower's ack discipline (offset dedupe, gap refusal, per-frame
// epoch fencing) does the heavy lifting; fencing acks are counted so
// the admin plane sees zombies being refused.
func (n *Node) handleShip(req []byte) ([]byte, error) {
	n.mu.Lock()
	f := n.follower
	role := n.role
	n.mu.Unlock()
	if role != WelcomeFollower || f == nil {
		n.count("fleet.fenced_frames")
		return encodeAck(ackFrame{Epoch: n.helloEpoch.Load(), Applied: 0, Status: ackFenced}), nil
	}
	resp, err := f.Handle(req)
	if err == nil {
		if _, _, ack, derr := decodeRepFrame(resp); derr == nil && ack != nil && ack.Status == ackFenced {
			n.count("fleet.fenced_frames")
		}
	}
	return resp, err
}

// handleRequest serves client frames on an accepted router connection.
func (n *Node) handleRequest(req []byte) ([]byte, error) {
	n.mu.Lock()
	p := n.primary
	role := n.role
	n.mu.Unlock()
	if role != WelcomePrimary || p == nil {
		return nil, fmt.Errorf("%w: member %d", errNotPrimary, n.cfg.Member)
	}
	return p.Handle(req)
}

// handleCtl serves control frames (status, promote, adopt, demote).
func (n *Node) handleCtl(req []byte) ([]byte, error) {
	cmd, err := decodeCtlReq(req)
	if err != nil {
		return nil, err
	}
	switch {
	case cmd.status:
		return encodeStatusResp(n.Status()), nil
	case cmd.promote != nil:
		st, err := n.Promote(*cmd.promote)
		if err != nil {
			return nil, err
		}
		return encodeStatusResp(st), nil
	case cmd.adopt != nil:
		if err := n.Adopt(*cmd.adopt); err != nil {
			return nil, err
		}
		return encodeCtlOK(), nil
	case cmd.demote != nil:
		if err := n.Demote(cmd.demote.Epoch); err != nil {
			return nil, err
		}
		return encodeCtlOK(), nil
	}
	return nil, fmt.Errorf("fleet: empty ctl request")
}

// Status reports this member's current role, epoch, stream position,
// health, and (for a primary) per-link replication freshness.
func (n *Node) Status() MemberStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.statusLocked()
}

func (n *Node) statusLocked() MemberStatus {
	st := MemberStatus{Member: n.cfg.Member, Role: n.role, Epoch: n.epochFloorLocked()}
	if n.role == WelcomePrimary && n.primary != nil {
		st.Fenced = n.primary.Fenced()
		st.Healthy = !n.primary.Fenced() && !n.primary.Dead() && n.primary.Health().Ready
		if n.rep != nil {
			st.Applied = n.rep.frontier()
			now := n.cfg.Clock.Now()
			for _, lh := range n.rep.health() {
				st.Links = append(st.Links, LinkStatus{
					Member: lh.Member, Acked: lh.Acked, Lag: lh.Lag,
					AckAgeMS: now.Sub(lh.LastAck).Milliseconds(),
				})
			}
		}
		return st
	}
	if n.follower != nil {
		st.Applied = n.follower.Applied()
		st.Healthy = true
	}
	return st
}

// Promote executes a ctlPromote: restore a primary at cmd.NewEpoch from
// this follower's durable segment and re-bootstrap the reachable
// survivors at the applied offset. Idempotent: a member already primary
// at (or past) the commanded epoch reports success without doing
// anything; a command older than the member's lineage is fenced.
func (n *Node) Promote(cmd promoteCmd) (MemberStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == WelcomePrimary && n.epoch >= cmd.NewEpoch {
		return n.statusLocked(), nil
	}
	if n.role != WelcomeFollower || n.follower == nil {
		return MemberStatus{}, fmt.Errorf("fleet: member %d cannot promote: not a follower", n.cfg.Member)
	}
	if floor := n.epochFloorLocked(); floor >= cmd.NewEpoch {
		return MemberStatus{}, fmt.Errorf("%w: promote to epoch %d but member %d already serves %d",
			ErrStaleEpoch, cmd.NewEpoch, n.cfg.Member, floor)
	}

	applied := n.follower.Applied()
	prov, err := n.follower.Promote(func(st *store.Store) (*core.Provider, error) {
		return n.cfg.Restore(cmd.NewEpoch, st)
	})
	if err != nil {
		return MemberStatus{}, err
	}

	n.role = WelcomePrimary
	n.epoch = cmd.NewEpoch
	n.helloEpoch.Store(cmd.NewEpoch)

	// The manifest must record the promotion before this primary
	// answers anyone: a crash right after promotion must restart into
	// the promoted lineage, not re-follow the dead one.
	if err := n.writeManifestLocked(); err != nil {
		return MemberStatus{}, err
	}

	if err := n.wireLocked(prov, applied, cmd.Survivors, n.cfg.PromoteWait); err != nil {
		return MemberStatus{}, err
	}
	n.count("fleet.promotions")
	n.logger.Info("promoted to primary", "shard", n.cfg.Shard, "member", n.cfg.Member,
		"epoch", cmd.NewEpoch, "applied", applied, "links", len(n.links))
	return n.statusLocked(), nil
}

// Adopt executes a ctlAdopt: bootstrap one follower into the replica
// set from the primary's quiesced segment. Idempotent for members
// already linked.
func (n *Node) Adopt(cmd adoptCmd) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != WelcomePrimary || n.primary == nil || n.rep == nil {
		return fmt.Errorf("%w: member %d cannot adopt", errNotPrimary, n.cfg.Member)
	}
	for _, m := range n.rep.members() {
		if m == cmd.Member {
			return nil
		}
	}
	link := n.newShipLink(PeerAddr{Member: cmd.Member, Addr: cmd.Addr})
	err := n.primary.Quiesced(func() error {
		seg, err := n.primary.Store().ReadSegment()
		if err != nil {
			return fmt.Errorf("fleet: adopt member %d: %w", cmd.Member, err)
		}
		boot := encodeSegmentBootstrap(n.epoch, n.rep.frontier(), seg)
		return n.rep.bootstrap(link.rt, cmd.Member, boot)
	})
	if err != nil {
		link.client.Close()
		return err
	}
	n.links = append(n.links, link)
	n.count("fleet.adoptions")
	n.logger.Info("adopted follower", "member", cmd.Member, "addr", cmd.Addr, "epoch", n.epoch)
	return nil
}

// Demote stands a primary down: fence and kill the provider, release
// its store, and rejoin as a follower awaiting adoption. observedEpoch
// is the newer epoch that deposed us (0 = unknown: a follower fenced a
// ship mid-run). A primary whose epoch is already >= a non-zero
// observation is current and no-ops; a member already following only
// raises its fence floor.
func (n *Node) Demote(observedEpoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != WelcomePrimary {
		if n.follower != nil && observedEpoch > 0 {
			n.follower.raiseEpoch(observedEpoch)
			if observedEpoch > n.epoch {
				n.epoch = observedEpoch
				n.helloEpoch.Store(observedEpoch)
			}
		}
		return nil
	}
	if observedEpoch > 0 && n.epoch >= observedEpoch {
		return nil // we ARE the current lineage
	}
	n.demoteLocked(observedEpoch)
	return nil
}

// demoteLocked performs the deposition. Caller holds n.mu.
func (n *Node) demoteLocked(newEpoch uint64) {
	if prov := n.primary; prov != nil {
		prov.Fence()
		prov.Kill()
		if st := prov.Store(); st != nil {
			if err := st.Close(); err != nil {
				n.logger.Warn("closing deposed primary store", "err", err)
			}
		}
	}
	for _, l := range n.links {
		l.client.Close()
	}
	n.primary, n.rep, n.links = nil, nil, nil
	n.role = WelcomeFollower
	if newEpoch > n.epoch {
		n.epoch = newEpoch
	}
	f := NewFollower(n.cfg.Shard, n.cfg.Member, n.state)
	f.raiseEpoch(n.epoch)
	n.follower = f
	n.demotions++
	n.helloEpoch.Store(n.epoch)
	n.count("fleet.demotions")
	if err := n.writeManifestLocked(); err != nil {
		n.logger.Error("writing node manifest after demotion", "err", err)
	}
	n.logger.Warn("demoted to follower", "shard", n.cfg.Shard, "member", n.cfg.Member, "epoch", n.epoch)
}

// writeManifestLocked persists (role, epoch). Caller holds n.mu or is
// inside NewNode before the node is shared.
func (n *Node) writeManifestLocked() error {
	role := NodeRoleFollower
	if n.role == WelcomePrimary {
		role = NodeRolePrimary
	}
	if err := WriteNodeManifest(n.manifest, NodeManifest{Epoch: n.epoch, Role: role}); err != nil {
		return fmt.Errorf("fleet: node %d/%d: write manifest: %w", n.cfg.Shard, n.cfg.Member, err)
	}
	return nil
}

// Classify maps this node's handler errors to wire error codes: fencing
// is fatal (the sender's epoch is stale for good), a dead or demoted
// member is a failover frame (route around me), everything else keeps
// the transport's default classification.
func (n *Node) Classify(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrFenced), errors.Is(err, ErrStaleEpoch):
		return netsim.ErrCodeFenced
	case errors.Is(err, store.ErrCrashed),
		errors.Is(err, faults.ErrKilled),
		errors.Is(err, ErrReplication),
		errors.Is(err, errNotPrimary):
		return netsim.ErrCodeFailover
	}
	return wire.DefaultClassify(err)
}

// Finish flushes and closes this member's durable state on graceful
// shutdown: a live primary snapshots and closes its store, a follower
// closes its segment. Safe on members whose provider already died.
func (n *Node) Finish() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.client.Close()
	}
	if n.role == WelcomePrimary && n.primary != nil {
		if st := n.primary.Store(); st != nil {
			if err := n.primary.SnapshotNow(); err != nil && !errors.Is(err, store.ErrCrashed) {
				return fmt.Errorf("fleet: node %d/%d: final snapshot: %w", n.cfg.Shard, n.cfg.Member, err)
			}
			return st.Close()
		}
		return nil
	}
	if n.follower != nil {
		return n.follower.Close()
	}
	return nil
}

// Demotions reports how many times this member stood down (tests).
func (n *Node) Demotions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.demotions
}

// Role reports the member's current role name.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == WelcomePrimary {
		return NodeRolePrimary
	}
	return NodeRoleFollower
}

// count bumps a metric counter (nil-registry safe).
func (n *Node) count(name string) {
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.Counter(name).Inc()
	}
}

// selfKill is the distributed kill matrix's crash primitive: a real,
// unhandleable SIGKILL of this process — no deferred flushes, no drain,
// exactly what a machine losing power looks like to the rest of the
// fleet.
func selfKill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL cannot be caught
}

// NodeManifest is the durable (role, epoch) pointer a shard-member
// process restarts from.
type NodeManifest struct {
	Epoch uint64
	Role  string // NodeRolePrimary or NodeRoleFollower
}

// nodeManifestMagic guards against interpreting foreign bytes ("FLN1").
const nodeManifestMagic uint32 = 0x464C_4E31

const (
	nodeManifestName = "NODE"
	nodeManifestTmp  = nodeManifestName + ".tmp"
)

// ReadNodeManifest loads a member's manifest; ok is false on a virgin
// backend. Exported for post-mortem harnesses that audit a dead fleet's
// data dirs.
func ReadNodeManifest(b store.Backend) (NodeManifest, bool, error) {
	data, err := b.ReadFile(nodeManifestName)
	if errors.Is(err, store.ErrNotExist) {
		return NodeManifest{}, false, nil
	}
	if err != nil {
		return NodeManifest{}, false, err
	}
	r := cryptoutil.NewReader(data)
	if magic := r.Uint32(); r.Err() == nil && magic != nodeManifestMagic {
		return NodeManifest{}, false, fmt.Errorf("fleet: node manifest: bad magic %#x", magic)
	}
	m := NodeManifest{Epoch: r.Uint64(), Role: r.String()}
	if err := r.ExpectEOF(); err != nil {
		return NodeManifest{}, false, fmt.Errorf("fleet: node manifest: %w", err)
	}
	return m, true, nil
}

// WriteNodeManifest durably replaces a member's manifest (temp write,
// sync, atomic rename — the shard-manifest discipline).
func WriteNodeManifest(b store.Backend, m NodeManifest) error {
	buf := cryptoutil.NewBuffer(32)
	buf.PutUint32(nodeManifestMagic)
	buf.PutUint64(m.Epoch)
	buf.PutString(m.Role)
	f, err := b.Create(nodeManifestTmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return b.Rename(nodeManifestTmp, nodeManifestName)
}
