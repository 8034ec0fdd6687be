package faults

// The socket-level half of the fault substrate: Plan injects faults on
// simulated pipes, Proxy injects them on real TCP byte streams. It is a
// chaos middlebox — clients dial the proxy, the proxy dials the real
// server, and every forwarded chunk rolls against the configured fault
// rates: abrupt connection resets (RST, not FIN), byte-level corruption,
// mid-stream truncation, and slowloris throttling. Partition windows
// sever every live flow and black-hole new ones until healed. Decisions
// are drawn from forked sim.Rand streams per connection and direction,
// so a seed reproduces the same fault decision sequence; byte-exact
// replay is NOT promised (TCP chunk boundaries vary run to run), which
// is exactly why experiments assert invariants, not transcripts.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"unitp/internal/sim"
)

// ProxyConfig tunes the chaos middlebox.
type ProxyConfig struct {
	// Target is the upstream address the proxy forwards to.
	Target string

	// Rng seeds the per-connection fault streams (required).
	Rng *sim.Rand

	// ResetRate is the per-chunk probability of killing the connection
	// with an RST in place of the forward.
	ResetRate float64

	// CorruptRate is the per-chunk probability of flipping one bit.
	CorruptRate float64

	// TruncateRate is the per-chunk probability of forwarding only a
	// prefix of the chunk and then resetting — a frame cut mid-body.
	TruncateRate float64

	// ThrottleBytesPerSec, when > 0, slowloris-throttles forwarding to
	// roughly this many bytes per second per direction.
	ThrottleBytesPerSec int

	// ChunkSize is the forwarding granularity (default 4096). Fault
	// rolls happen per chunk, so smaller chunks mean more rolls per
	// byte.
	ChunkSize int

	// DialTimeout bounds the upstream dial (default 5s).
	DialTimeout time.Duration
}

// ProxyStats counts what the proxy did to traffic.
type ProxyStats struct {
	// Conns counts accepted downstream connections.
	Conns int

	// Refused counts connections black-holed by a partition window.
	Refused int

	// Resets counts connections killed by a reset roll (truncations
	// included — a truncate ends in a reset).
	Resets int

	// Corrupted counts bit-flipped chunks.
	Corrupted int

	// Truncated counts chunks cut short before the reset.
	Truncated int

	// Severed counts live connections killed by Partition.
	Severed int

	// BytesForwarded counts payload actually delivered (both ways).
	BytesForwarded int64
}

// Proxy is a running chaos middlebox. Construct with NewProxy, start
// with Start, aim clients at Addr().
type Proxy struct {
	cfg ProxyConfig

	mu          sync.Mutex
	ln          net.Listener
	conns       map[net.Conn]struct{} // both halves of every live flow
	partitioned bool
	connSeq     int
	stats       ProxyStats
	closed      bool

	wg sync.WaitGroup
}

// NewProxy builds a proxy; Start brings up the listener.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4096
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Rng == nil {
		cfg.Rng = sim.NewRand(0xFA17)
	}
	return &Proxy{cfg: cfg, conns: map[net.Conn]struct{}{}}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves until Close. It returns the bound address.
func (p *Proxy) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("faults: proxy listen: %w", err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.serve(ln)
	return ln.Addr().String(), nil
}

// Addr reports the bound listener address.
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// serve accepts flows until the listener closes.
func (p *Proxy) serve(ln net.Listener) {
	defer p.wg.Done()
	for {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		p.admit(down)
	}
}

// admit applies the partition window, dials upstream, and starts the
// two chaos pumps of a flow.
func (p *Proxy) admit(down net.Conn) {
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.stats.Refused++
		p.mu.Unlock()
		abort(down)
		return
	}
	p.stats.Conns++
	p.connSeq++
	seq := p.connSeq
	rng := p.cfg.Rng.Fork(fmt.Sprintf("conn-%d", seq))
	p.mu.Unlock()

	up, err := net.DialTimeout("tcp", p.cfg.Target, p.cfg.DialTimeout)
	if err != nil {
		abort(down)
		return
	}

	p.mu.Lock()
	if p.closed || p.partitioned {
		p.stats.Refused++
		p.mu.Unlock()
		abort(down)
		abort(up)
		return
	}
	p.conns[down] = struct{}{}
	p.conns[up] = struct{}{}
	p.mu.Unlock()

	var flowWG sync.WaitGroup
	flowWG.Add(2)
	p.wg.Add(1)
	pump := func(dst, src net.Conn, dir string) {
		defer flowWG.Done()
		p.pump(dst, src, rng.Fork(dir))
	}
	go pump(up, down, "c2s")
	go pump(down, up, "s2c")
	go func() {
		defer p.wg.Done()
		flowWG.Wait()
		p.release(down, up)
	}()
}

// release closes both halves of a flow and drops the tracking.
func (p *Proxy) release(down, up net.Conn) {
	down.Close()
	up.Close()
	p.mu.Lock()
	delete(p.conns, down)
	delete(p.conns, up)
	p.mu.Unlock()
}

// pump forwards src→dst chunk by chunk, rolling each chunk against the
// fault rates. Any fault or error ends the whole flow (both directions
// die when release closes the sockets).
func (p *Proxy) pump(dst, src net.Conn, rng *sim.Rand) {
	buf := make([]byte, p.cfg.ChunkSize)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			switch {
			case p.roll(rng, p.cfg.ResetRate):
				p.countReset()
				abort(dst)
				abort(src)
				return
			case p.roll(rng, p.cfg.TruncateRate):
				cut := rng.Intn(n)
				if cut > 0 {
					dst.Write(chunk[:cut])
				}
				p.countTruncate(cut)
				abort(dst)
				abort(src)
				return
			case p.roll(rng, p.cfg.CorruptRate):
				chunk[rng.Intn(n)] ^= 1 << uint(rng.Intn(8))
				p.countCorrupt()
			}
			if p.cfg.ThrottleBytesPerSec > 0 {
				time.Sleep(time.Duration(float64(n) / float64(p.cfg.ThrottleBytesPerSec) * float64(time.Second)))
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			p.countBytes(n)
		}
		if err != nil {
			// Propagate a clean EOF as a half-close so graceful drains
			// still complete through the proxy.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// roll draws one fault decision. Rates are clamped to [0,1]; the rng
// lock in sim.Rand makes concurrent pumps safe.
func (p *Proxy) roll(rng *sim.Rand, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return rng.Bool(rate)
}

// Partition opens a partition window: every live flow is severed with
// an RST and new connections are refused until Heal.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	severed := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		severed = append(severed, c)
	}
	p.stats.Severed += len(severed) / 2 // two halves per flow
	p.mu.Unlock()
	for _, c := range severed {
		abort(c)
	}
}

// Heal closes the partition window; new connections flow again.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// Stats snapshots the fault counters.
func (p *Proxy) Stats() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close tears the proxy down: stop accepting, sever every flow, wait
// for the pumps to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("faults: proxy already closed")
	}
	p.closed = true
	ln := p.ln
	live := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		live = append(live, c)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range live {
		abort(c)
	}
	p.wg.Wait()
	return nil
}

func (p *Proxy) countReset() {
	p.mu.Lock()
	p.stats.Resets++
	p.mu.Unlock()
}

func (p *Proxy) countTruncate(cut int) {
	p.mu.Lock()
	p.stats.Truncated++
	p.stats.Resets++
	p.stats.BytesForwarded += int64(cut)
	p.mu.Unlock()
}

func (p *Proxy) countCorrupt() {
	p.mu.Lock()
	p.stats.Corrupted++
	p.mu.Unlock()
}

func (p *Proxy) countBytes(n int) {
	p.mu.Lock()
	p.stats.BytesForwarded += int64(n)
	p.mu.Unlock()
}

// abort kills a connection with an RST where the platform allows it
// (SO_LINGER 0), so peers observe a hard reset rather than a clean FIN
// — the difference between "server said no" and "network ate it".
func abort(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}
