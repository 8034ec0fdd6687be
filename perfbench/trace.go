package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/netsim"
	"unitp/internal/store"
	"unitp/internal/wire"
)

// Span names. Every span is recorded by this package around a call
// into one layer's public entry point; nothing inside the program is
// instrumented.
const (
	spanTx       = "tx"                   // one transaction, generator side
	spanRTT      = "wire.rtt"             // wire.Client.RoundTrip
	spanRouter   = "fleet.router"         // the router's wire.Server handler
	spanHandle   = "core.handle"          // Provider.Handle, or the primary's Node.Accept handler
	spanFollower = "fleet.follower_apply" // a follower's ship handler from Node.Accept
	spanFsync    = "store.fsync"          // store.File.Sync
	spanSnapshot = "store.snapshot"       // snapshot file create .. rename
	spanVerify   = "attest.sig_verify"    // the quote-signature hook
)

// Handler roles for tracer.handler.
const (
	roleRouter   = "router"
	roleCore     = "core"
	roleFollower = "follower"
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin. Spans of one transaction share Tx; Parent names the
// span that caused this one (0 = none known).
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Tx     uint64 `json:"tx,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// corrEntry links a server-side handler span to the client round trip
// that carried the same request bytes: the client registers it before
// sending, the router and provider wrappers read it.
type corrEntry struct {
	tx, rtt uint64
	router  atomic.Uint64 // the router handler's span, once it started
}

// tracer keeps spans in memory while recording is on and writes them
// out when the run ends. A nil *tracer is the untraced run: every
// wrapper returns the wrapped call unchanged.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	seed   maphash.Seed

	mu    sync.Mutex
	spans []span
	snaps map[snapKey]*timedFile // open snapshot temp files

	corr sync.Map // request fingerprint -> *corrEntry

	wireBytes  atomic.Int64 // request + response bytes over the client wire
	writeBytes atomic.Int64 // bytes written to store files
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), seed: maphash.MakeSeed(), snaps: map[snapKey]*timedFile{}}
}

func (tr *tracer) recording() bool { return tr != nil && tr.on.Load() }
func (tr *tracer) now() int64      { return int64(time.Since(tr.t0)) }
func (tr *tracer) newID() uint64   { return tr.nextID.Add(1) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) fingerprint(req []byte) uint64 { return maphash.Bytes(tr.seed, req) }

// kindOf names a client request by its protocol message type.
func kindOf(req []byte) string {
	if len(req) == 0 {
		return "empty"
	}
	switch core.MsgType(req[0]) {
	case core.MsgSubmitTx:
		return "submit"
	case core.MsgConfirmTx:
		return "confirm"
	case core.MsgSessionOpen:
		return "session_open"
	case core.MsgSessionProve:
		return "session_prove"
	case core.MsgConfirmTxSession:
		return "confirm_session"
	}
	return fmt.Sprintf("msg%d", req[0])
}

// handleKinds are the request kinds the generators send, in report
// order.
var handleKinds = []string{"submit", "confirm", "session_open", "session_prove", "confirm_session"}

// roundTrip is the generator's only way onto the wire: a timed
// wire.Client.RoundTrip when recording, a plain one otherwise.
func (tr *tracer) roundTrip(c *wire.Client, parent, tx uint64, req []byte) ([]byte, error) {
	if !tr.recording() {
		return c.RoundTrip(req)
	}
	id := tr.newID()
	key := tr.fingerprint(req)
	tr.corr.Store(key, &corrEntry{tx: tx, rtt: id})
	start := tr.now()
	resp, err := c.RoundTrip(req)
	end := tr.now()
	tr.corr.Delete(key)
	tr.wireBytes.Add(int64(len(req) + len(resp)))
	tr.add(span{Name: spanRTT, Kind: kindOf(req), ID: id, Parent: parent, Tx: tx, Start: start, End: end})
	return resp, err
}

// handler wraps a wire.Server handler of the given role.
func (tr *tracer) handler(role string, h netsim.Handler) netsim.Handler {
	if tr == nil {
		return h
	}
	return func(req []byte) ([]byte, error) {
		if !tr.on.Load() {
			return h(req)
		}
		id := tr.newID()
		s := span{ID: id}
		if role == roleFollower {
			s.Name = spanFollower
		} else {
			s.Kind = kindOf(req)
			if v, ok := tr.corr.Load(tr.fingerprint(req)); ok {
				e := v.(*corrEntry)
				s.Tx, s.Parent = e.tx, e.rtt
				if role == roleRouter {
					e.router.Store(id)
				} else if r := e.router.Load(); r != 0 {
					s.Parent = r
				}
			}
			s.Name = spanHandle
			if role == roleRouter {
				s.Name = spanRouter
			}
		}
		s.Start = tr.now()
		resp, err := h(req)
		s.End = tr.now()
		tr.add(s)
		return resp, err
	}
}

// accept wraps a wire.Server handshake hook (Node.Accept) so the
// per-connection handler it returns is traced in the given role.
func (tr *tracer) accept(role string, acc func(net.Conn) (netsim.Handler, error)) func(net.Conn) (netsim.Handler, error) {
	if tr == nil {
		return acc
	}
	return func(conn net.Conn) (netsim.Handler, error) {
		h, err := acc(conn)
		if err != nil {
			return nil, err
		}
		return tr.handler(role, h), nil
	}
}

// sigVerifier is the traced quote-signature check: the profile's own
// Scheme.Verify, timed. For RSA it parses the raw AIK key on every
// call, which the inline path does not, so it slightly over-prices that
// span.
func (tr *tracer) sigVerifier(scheme cryptoutil.Scheme) func(pub, msg, sig []byte) error {
	return func(pub, msg, sig []byte) error {
		if !tr.on.Load() {
			return scheme.Verify(pub, msg, sig)
		}
		start := tr.now()
		err := scheme.Verify(pub, msg, sig)
		tr.add(span{Name: spanVerify, ID: tr.newID(), Start: start, End: tr.now()})
		return err
	}
}

// backend wraps a store backend so file syncs, written bytes and
// snapshot rotations are timed.
func (tr *tracer) backend(b store.Backend) store.Backend {
	if tr == nil {
		return b
	}
	return &timedBackend{Backend: b, tr: tr}
}

type timedBackend struct {
	store.Backend
	tr *tracer
}

// snapKey names a snapshot temp file: every member of a fleet stages
// the same file names in its own directory.
type snapKey struct {
	b    *timedBackend
	name string
}

// isSnapshotTemp matches the store's snapshot staging file names.
func isSnapshotTemp(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp")
}

func (b *timedBackend) Create(name string) (store.File, error) {
	start := b.tr.now()
	f, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	tf := &timedFile{File: f, tr: b.tr, start: start}
	if isSnapshotTemp(name) {
		b.tr.mu.Lock()
		b.tr.snaps[snapKey{b, name}] = tf
		b.tr.mu.Unlock()
	}
	return tf, nil
}

func (b *timedBackend) Rename(oldname, newname string) error {
	err := b.Backend.Rename(oldname, newname)
	if !isSnapshotTemp(oldname) {
		return err
	}
	b.tr.mu.Lock()
	tf := b.tr.snaps[snapKey{b, oldname}]
	delete(b.tr.snaps, snapKey{b, oldname})
	b.tr.mu.Unlock()
	if err == nil && tf != nil && b.tr.on.Load() {
		b.tr.add(span{Name: spanSnapshot, ID: b.tr.newID(), Start: tf.start, End: b.tr.now(), Bytes: tf.written.Load()})
	}
	return err
}

type timedFile struct {
	store.File
	tr      *tracer
	start   int64
	written atomic.Int64
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	if f.tr.on.Load() {
		f.tr.writeBytes.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.add(span{Name: spanFsync, ID: f.tr.newID(), Start: start, End: f.tr.now()})
	return err
}

// dump writes every recorded span as one JSON object per line.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.writeSpans(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (tr *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// interval is a half-open [start, end) in tracer nanoseconds.
type interval struct{ start, end int64 }

// coveredBy returns how much of [s, e) the given intervals cover,
// counting overlaps once.
func coveredBy(s, e int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.start, s), min(iv.end, e)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}
