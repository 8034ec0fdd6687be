// Package tpm implements a software TPM v1.2 with the fidelity the
// uni-directional trusted path protocol depends on: 24 PCRs with
// locality-gated extend/reset policies (including the dynamically
// resettable DRTM registers), RSA quote generation over PCR composites,
// sealed storage bound to PCR state, non-volatile storage, and monotonic
// counters.
//
// Hardware substitution (see DESIGN.md): command latencies of discrete
// TPM chips are modelled by vendor Profiles and charged to a sim.Clock;
// all cryptography (extend chains, quote signatures, sealed-blob
// authenticated encryption) is real.
package tpm

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
)

// Locality is the TPM locality at which a command arrives. Locality 4 is
// asserted only by the CPU during DRTM late launch; locality 2 belongs to
// the late-launched environment; locality 0 to the legacy OS.
type Locality uint8

// MaxLocality is the highest defined locality.
const MaxLocality Locality = 4

// LocalityMask is a bit set of localities (bit i set ⇒ locality i allowed).
type LocalityMask uint8

// MaskOf builds a LocalityMask from the given localities.
func MaskOf(locs ...Locality) LocalityMask {
	var m LocalityMask
	for _, l := range locs {
		m |= 1 << l
	}
	return m
}

// AllLocalities permits every locality.
const AllLocalities LocalityMask = 0x1F

// Contains reports whether the mask includes loc.
func (m LocalityMask) Contains(loc Locality) bool {
	return loc <= MaxLocality && m&(1<<loc) != 0
}

// Handle identifies a loaded key inside the TPM.
type Handle uint32

// KeySource supplies RSA private keys for EK/AIK creation. Real TPMs
// generate keys internally (tens of seconds on era chips, modelled by
// OpCreateKey latency); the source abstraction lets simulations draw from
// the deterministic process-wide pool instead of paying real generation
// cost for every simulated platform.
type KeySource interface {
	// Next returns a fresh RSA private key.
	Next() (*rsa.PrivateKey, error)
}

// pooledKeySource hands out keys from the deterministic process-wide pool.
type pooledKeySource struct{ next *atomic.Int64 }

// poolCursor is shared across all pooled sources so two TPMs in one
// process never receive the same key.
var poolCursor atomic.Int64

// PooledKeySource returns a KeySource drawing from the deterministic
// process-wide key pool. Distinct calls to Next never return the same key
// within a process.
func PooledKeySource() KeySource {
	return pooledKeySource{next: &poolCursor}
}

func (s pooledKeySource) Next() (*rsa.PrivateKey, error) {
	idx := s.next.Add(1) - 1
	return cryptoutil.PooledKey(int(idx))
}

// Config configures a TPM device. Zero-value fields receive defaults:
// an Ideal profile, a fresh virtual clock, crypto/rand entropy, and the
// pooled key source.
type Config struct {
	// Profile selects the vendor latency model.
	Profile Profile

	// Clock receives the modelled command latencies.
	Clock sim.Clock

	// Random supplies entropy for GetRandom, seal nonces, and quote
	// signatures.
	Random io.Reader

	// Keys supplies EK and AIK private keys.
	Keys KeySource
}

// TPM is a software TPM v1.2 device. All methods are safe for concurrent
// use; the device serializes commands like the single-threaded hardware
// it models.
type TPM struct {
	mu      sync.Mutex
	profile Profile
	clock   sim.Clock
	random  io.Reader
	keys    KeySource

	started bool
	pcrs    [NumPCRs]cryptoutil.Digest

	ek         *rsa.PrivateKey
	nextHandle Handle
	aiks       map[Handle]*rsa.PrivateKey

	srk [32]byte // storage root key for sealed blobs

	nv       map[uint32][]byte
	counters map[uint32]uint64

	stats map[Op]OpStat
}

// New constructs a TPM, generating its endorsement key. The device is not
// usable until Startup is called (mirroring TPM_Startup after platform
// reset).
func New(cfg Config) (*TPM, error) {
	if cfg.Profile.Name == "" {
		cfg.Profile = ProfileIdeal()
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewVirtualClock()
	}
	if cfg.Random == nil {
		cfg.Random = rand.Reader
	}
	if cfg.Keys == nil {
		cfg.Keys = PooledKeySource()
	}
	t := &TPM{
		profile:    cfg.Profile,
		clock:      cfg.Clock,
		random:     cfg.Random,
		keys:       cfg.Keys,
		nextHandle: 0x8000_0001,
		aiks:       make(map[Handle]*rsa.PrivateKey),
		nv:         make(map[uint32][]byte),
		counters:   make(map[uint32]uint64),
		stats:      make(map[Op]OpStat),
	}
	ek, err := t.keys.Next()
	if err != nil {
		return nil, fmt.Errorf("tpm: create EK: %w", err)
	}
	t.ek = ek
	if _, err := io.ReadFull(t.random, t.srk[:]); err != nil {
		return nil, fmt.Errorf("tpm: derive SRK: %w", err)
	}
	return t, nil
}

// charge records the modelled latency of op on the clock and in the
// statistics. Must be called with t.mu held.
func (t *TPM) charge(op Op) {
	d := t.profile.LatencyOf(op)
	t.clock.Sleep(d)
	s := t.stats[op]
	s.Count++
	s.Total += d
	t.stats[op] = s
}

// Profile returns the vendor latency profile of the device.
func (t *TPM) Profile() Profile { return t.profile }

// Startup performs TPM_Startup(ST_CLEAR): static PCRs become zero and
// dynamically resettable PCRs take their power-on default (all 0xFF for
// the DRTM registers), guaranteeing that a zero-prefix extend chain in
// PCR 17 can only originate from a genuine late launch.
func (t *TPM) Startup() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.charge(OpStartup)
	for i := 0; i < NumPCRs; i++ {
		t.pcrs[i] = pcrPolicies[i].startupValue
	}
	t.started = true
	return nil
}

// Started reports whether TPM_Startup has completed.
func (t *TPM) Started() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// EK returns the public endorsement key of the device.
func (t *TPM) EK() *rsa.PublicKey {
	return &t.ek.PublicKey
}

// CreateAIK generates an attestation identity key inside the TPM and
// returns its handle and public part. Certification of the AIK against the
// EK is the job of the attestation layer (privacy CA).
func (t *TPM) CreateAIK() (Handle, *rsa.PublicKey, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return 0, nil, ErrNotStarted
	}
	t.charge(OpCreateKey)
	key, err := t.keys.Next()
	if err != nil {
		return 0, nil, fmt.Errorf("tpm: create AIK: %w", err)
	}
	h := t.nextHandle
	t.nextHandle++
	t.aiks[h] = key
	return h, &key.PublicKey, nil
}

// GetRandom returns n bytes from the TPM's random number generator.
func (t *TPM) GetRandom(n int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return nil, ErrNotStarted
	}
	t.charge(OpGetRandom)
	buf := make([]byte, n)
	if _, err := io.ReadFull(t.random, buf); err != nil {
		return nil, fmt.Errorf("tpm: entropy source: %w", err)
	}
	return buf, nil
}

// signSHA1 signs digest material with the given private key. Must be
// called with t.mu held.
func (t *TPM) signSHA1(key *rsa.PrivateKey, material []byte) ([]byte, error) {
	digest := cryptoutil.SHA1(material)
	sig, err := rsa.SignPKCS1v15(t.random, key, crypto.SHA1, digest[:])
	if err != nil {
		return nil, fmt.Errorf("tpm: sign: %w", err)
	}
	return sig, nil
}

// Stats returns a copy of the per-command statistics accumulated since the
// last ResetStats.
func (t *TPM) Stats() map[Op]OpStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Op]OpStat, len(t.stats))
	for k, v := range t.stats {
		out[k] = v
	}
	return out
}

// ResetStats clears the per-command statistics.
func (t *TPM) ResetStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = make(map[Op]OpStat)
}
