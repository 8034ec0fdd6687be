package main

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/fleet"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/wire"
	"unitp/internal/workload"
)

// tpserver's defaults, which the system under test keeps.
const (
	snapshotEvery = 64 // -snapshot-every
	connWorkers   = 4  // -workers
	traceBuffer   = 256
	followers     = 2 // fleet-tcp: a primary and two followers
)

// sysConfig is what a workload asks of the system under test.
type sysConfig struct {
	fleet    bool
	scheme   cryptoutil.Scheme
	accounts []string
	balance  int64 // opening balance of every account
	dataDir  string
	seed     uint64
	tr       *tracer // nil: untraced
}

// system is the provider (or fleet) served on loopback TCP, built from
// the constructors cmd/tpserver uses.
type system struct {
	cfg    sysConfig
	id     *identity
	addr   string // where the generator connects
	conns  []*wire.Client
	closed bool

	primary atomic.Pointer[core.Provider]
	pcfg    core.ProviderConfig // for restoring followers after shutdown

	// fleet-tcp only: the state dir of every member; 0 is the primary.
	memberDirs []string

	// stop functions run in reverse order by close.
	stops []func() error
}

// provider is the single provider, or the fleet's serving primary.
func (s *system) provider() *core.Provider { return s.primary.Load() }

// identity is the key material a deployment provisions out of band
// once: the privacy CA, the provider's RSA key, and the generator's
// platform enrolled with that CA. RSA key generation takes a random
// 0.2-1 s per 2048-bit key, so it is made once per run and kept out of
// setup_s.
type identity struct {
	ca       *attest.PrivacyCA
	provKey  *rsa.PrivateKey
	platform *workload.SyntheticClient
}

// newIdentity generates the keys and enrolls the platform (an EK and
// an AIK under the given crypto profile).
func newIdentity(scheme cryptoutil.Scheme, seed uint64) (*identity, error) {
	caKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return nil, err
	}
	provKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return nil, err
	}
	ca := attest.NewPrivacyCA("perfbench-ca", caKey, sim.WallClock{}, sim.NewRand(seed^0xCA))
	plat, err := workload.NewSyntheticClientScheme(ca, "perfbench-platform",
		cryptoutil.SHA1(core.ConfirmPALImage()), rand.Reader, cryptoutil.DefaultRSABits, scheme)
	if err != nil {
		return nil, err
	}
	return &identity{ca: ca, provKey: provKey, platform: plat}, nil
}

// newSystem builds the provider or fleet on durable stores under
// cfg.dataDir, listens on loopback and opens the generator's
// connections. Everything it does is timed as set-up.
func newSystem(cfg sysConfig, id *identity, nconns int) (*system, error) {
	s := &system{cfg: cfg, id: id}
	s.pcfg = core.ProviderConfig{
		Name:          "perfbench",
		CAPub:         id.ca.PublicKey(),
		Key:           id.provKey,
		Clock:         sim.WallClock{},
		SnapshotEvery: snapshotEvery,
		Scheme:        cfg.scheme,
	}
	var err error
	if cfg.fleet {
		err = s.startFleet()
	} else {
		err = s.startSingle()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < nconns; i++ {
		c := wire.NewClient(wire.ClientConfig{Addr: s.addr, MaxInflight: 1024})
		s.conns = append(s.conns, c)
		s.stops = append(s.stops, c.Close)
		if err := c.Connect(); err != nil {
			s.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	return s, nil
}

// newProvider builds a fresh provider the way tpserver does: PAL
// approvals and seeded accounts, its own registry and tracer.
func (s *system) newProvider(name string, epoch uint64) (*core.Provider, error) {
	pc := s.pcfg
	pc.Name = name
	pc.Epoch = epoch
	pc.Random = sim.NewRand(s.cfg.seed ^ 0x9E37)
	pc.Metrics = obs.NewRegistry()
	pc.Tracer = obs.NewTracer(traceBuffer)
	p := core.NewProvider(pc)
	s.configure(p)
	for _, a := range s.cfg.accounts {
		if err := p.Ledger().CreateAccount(a, s.cfg.balance); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// configure applies what is configuration, not state: PAL approvals
// and, when tracing, the timed quote-signature hook.
func (s *system) configure(p *core.Provider) {
	approvePALs(p)
	if s.cfg.tr != nil {
		p.Verifier().SetQuoteSigVerifier(s.cfg.tr.sigVerifier(s.cfg.scheme))
	}
}

// approvePALs is tpserver's measurement whitelist.
func approvePALs(p *core.Provider) {
	v := p.Verifier()
	v.ApprovePAL(core.ConfirmPALName, cryptoutil.SHA1(core.ConfirmPALImage()))
	v.ApprovePAL(core.PresencePALName, cryptoutil.SHA1(core.PresencePALImage()))
	v.ApprovePAL(core.ProvisionPALName, cryptoutil.SHA1(core.ProvisionPALImage(p.PublicKeyDER())))
	v.ApprovePAL(core.PINPALName, cryptoutil.SHA1(core.PINPALImage()))
	v.ApprovePAL(core.BatchPALName, cryptoutil.SHA1(core.BatchPALImage()))
	v.ApprovePAL(core.SessionConfirmPALName, cryptoutil.SHA1(core.SessionConfirmPALImage()))
	v.ApprovePAL(core.SessionOpenPALNameFor(p.PublicKeyDER()),
		cryptoutil.SHA1(core.SessionOpenPALImage(p.PublicKeyDER())))
}

// openBackend opens a durable directory backend, timed when tracing.
func (s *system) openBackend(dir string) (store.Backend, error) {
	b, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return s.cfg.tr.backend(b), nil
}

// serve runs a wire server on a fresh loopback listener. The returned
// stop drains it and waits for Serve to return.
func serve(cfg wire.ServerConfig) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	cfg.Workers = connWorkers
	srv := wire.NewServer(cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns once Shutdown closed the listener
	}()
	return ln.Addr().String(), func() error {
		err := srv.Shutdown()
		wg.Wait()
		return err
	}, nil
}

// startSingle is tpserver -data: one durable provider.
func (s *system) startSingle() error {
	backend, err := s.openBackend(filepath.Join(s.cfg.dataDir, "provider"))
	if err != nil {
		return err
	}
	st, err := store.Open(backend)
	if err != nil {
		return err
	}
	p, err := s.newProvider("perfbench", 0)
	if err != nil {
		st.Close()
		return err
	}
	if err := p.AttachStore(st); err != nil {
		st.Close()
		return err
	}
	s.primary.Store(p)
	s.stops = append(s.stops, func() error { return flush(p) })
	addr, stop, err := serve(wire.ServerConfig{Handler: s.cfg.tr.handler(roleCore, p.Handle)})
	if err != nil {
		return err
	}
	s.addr = addr
	s.stops = append(s.stops, stop)
	return nil
}

// startFleet is tpserver's distributed roles in one process: followers,
// then the primary (which bootstraps them), then the router.
func (s *system) startFleet() error {
	members := make([]fleet.MemberAddr, followers+1)
	var peers []fleet.PeerAddr
	for m := followers; m >= 0; m-- {
		role, traceRole := fleet.NodeRoleFollower, roleFollower
		if m == 0 {
			role, traceRole = fleet.NodeRolePrimary, roleCore
		}
		dir := filepath.Join(s.cfg.dataDir, fmt.Sprintf("member-%d", m))
		s.memberDirs = append([]string{filepath.Join(dir, "state")}, s.memberDirs...)
		node, err := fleet.NewNode(fleet.NodeConfig{
			Shard:     0,
			Member:    m,
			StartRole: role,
			Scheme:    s.cfg.scheme.ID(),
			Followers: peers,
			NewBackend: func(name string) (store.Backend, error) {
				if name == "state" {
					return s.openBackend(filepath.Join(dir, name))
				}
				return store.OpenDir(filepath.Join(dir, name))
			},
			Build: func(epoch uint64) (*core.Provider, error) {
				p, err := s.newProvider(fmt.Sprintf("perfbench-m%d", m), epoch)
				if err == nil {
					s.primary.Store(p)
				}
				return p, err
			},
			Restore: func(epoch uint64, st *store.Store) (*core.Provider, error) {
				p, err := s.restore(st, epoch)
				if err == nil {
					s.primary.Store(p)
				}
				return p, err
			},
			Metrics: obs.NewRegistry(),
			Tracer:  obs.NewTracer(traceBuffer),
		})
		if err != nil {
			return err
		}
		addr, stop, err := serve(wire.ServerConfig{
			Handshake: s.cfg.tr.accept(traceRole, node.Accept),
			Classify:  node.Classify,
		})
		if err != nil {
			node.Finish()
			return err
		}
		s.stops = append(s.stops, func() error {
			serr := stop()
			if err := node.Finish(); err != nil {
				return err
			}
			return serr
		})
		members[m] = fleet.MemberAddr{Member: m, Addr: addr}
		if m > 0 {
			peers = append(peers, fleet.PeerAddr{Member: m, Addr: addr})
		}
	}

	rs, err := fleet.NewRemoteShard(fleet.RemoteShardConfig{
		Shard: 0, Members: members, Primary: 0,
		Scheme: s.cfg.scheme.ID(), Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	s.stops = append(s.stops, func() error { rs.Close(); return nil })
	router := fleet.NewRouterRefs([]fleet.ShardRef{rs}, 0, obs.NewRegistry())
	addr, stop, err := serve(wire.ServerConfig{
		Handler: s.cfg.tr.handler(roleRouter, func(req []byte) ([]byte, error) {
			resp, err := router.Handle(req)
			if err != nil && (errors.Is(err, store.ErrCrashed) || fleet.FailoverTrigger(err)) {
				return nil, netsim.ErrReset
			}
			return resp, err
		}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	s.addr = addr
	s.stops = append(s.stops, stop)
	return nil
}

// close stops the generator's connections, every server, and flushes
// and closes every store, newest first. It is idempotent.
func (s *system) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for i := len(s.stops) - 1; i >= 0; i-- {
		if err := s.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flush is tpserver's shutdown: a final snapshot, then close the store.
func flush(p *core.Provider) error {
	st := p.Store()
	if st == nil {
		return nil
	}
	if err := p.SnapshotNow(); err != nil && !errors.Is(err, store.ErrCrashed) {
		return fmt.Errorf("final snapshot: %w", err)
	}
	return st.Close()
}

// restore rebuilds a provider from a durable store with core.RestoreProvider,
// re-applying only configuration.
func (s *system) restore(st *store.Store, epoch uint64) (*core.Provider, error) {
	pc := s.pcfg
	pc.Epoch = epoch
	pc.Random = sim.NewRand(s.cfg.seed ^ 0x5EED ^ epoch)
	p, err := core.RestoreProvider(pc, st)
	if err != nil {
		return nil, err
	}
	s.configure(p)
	return p, nil
}

// restoreMember rebuilds a provider from one fleet member's data dir
// after shutdown, for the replication oracle.
func (s *system) restoreMember(dir string) (*core.Provider, error) {
	b, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(b)
	if err != nil {
		return nil, err
	}
	p, err := s.restore(st, 2)
	if err != nil {
		st.Close()
		return nil, err
	}
	return p, nil
}
