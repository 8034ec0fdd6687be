package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unitp/internal/core"
	"unitp/internal/netsim"
	"unitp/internal/sim"
	"unitp/internal/wire"
	"unitp/internal/workload"
)

// Generator shape: at most nproc (= 2) connections and 2 minting
// goroutines; quote-rsa keeps closedLoopDepth requests in flight.
const (
	genConns        = 2
	genMinters      = 2
	closedLoopDepth = 8
	amountMaxCents  = 10_000
)

// runResult is what one timed phase produced.
type runResult struct {
	attempted, failed int
	retries           int64
	accepted          []string        // IDs the provider accepted
	submitted         map[string]bool // every ID the generator sent
	lat               durations       // per accepted transaction
	lag               durations       // open loop: generator lateness towards idle users
	meter             meter           // wall, CPU and runtime counters of the timed phases
	mint              time.Duration   // off-clock generator crypto (platforms, evidence)
}

// meter accumulates wall time, process CPU time and Go runtime
// counters over one or more timed phases.
type meter struct {
	wall, cpu, steal       time.Duration
	allocs, allocBytes, gc uint64

	t0     time.Time
	cpu0   time.Duration
	steal0 time.Duration
	rt0    [3]uint64
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() (v [3]uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			v[i] = s[i].Value.Uint64()
		}
	}
	return v
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time the hypervisor ran something else while this
// host's CPUs wanted to run (the steal column of /proc/stat, summed
// over CPUs), or 0 where that is not available.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ
}

func (m *meter) begin() {
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.steal0 = hostSteal()
	m.t0 = time.Now()
}

func (m *meter) end() {
	m.wall += time.Since(m.t0)
	m.steal += hostSteal() - m.steal0
	m.cpu += processCPU() - m.cpu0
	rt := readRuntime()
	m.allocs += rt[0] - m.rt0[0]
	m.allocBytes += rt[1] - m.rt0[1]
	m.gc += rt[2] - m.rt0[2]
}

// gen drives one system. It sees the system only through its wire
// connections and the CA that certifies its platform.
type gen struct {
	sys      *system
	tr       *tracer
	rng      *sim.Rand
	platform *workload.SyntheticClient
	mintSem  chan struct{} // bounds concurrent minting to genMinters
	mintNS   atomic.Int64
	retries  atomic.Int64
	txSeq    atomic.Uint64
}

// newGen drives sys with the platform its identity enrolled.
func newGen(sys *system, rng *sim.Rand, tr *tracer) *gen {
	return &gen{sys: sys, tr: tr, rng: rng, platform: sys.id.platform, mintSem: make(chan struct{}, genMinters)}
}

// mint runs one piece of generator crypto under the minting bound and
// off the books of the system.
func (g *gen) mint(f func() error) error {
	g.mintSem <- struct{}{}
	defer func() { <-g.mintSem }()
	start := time.Now()
	err := f()
	g.mintNS.Add(int64(time.Since(start)))
	return err
}

// call sends one protocol message and decodes the answer, retrying once
// on a transient wire failure.
func (g *gen) call(c *wire.Client, parent, tx uint64, msg any) (any, error) {
	req, err := core.EncodeMessage(msg)
	if err != nil {
		return nil, err
	}
	resp, err := g.tr.roundTrip(c, parent, tx, req)
	if err != nil && netsim.DefaultRetryable(err) {
		g.retries.Add(1)
		resp, err = g.tr.roundTrip(c, parent, tx, req)
	}
	if err != nil {
		return nil, err
	}
	return core.DecodeMessage(resp)
}

// planTx draws one transfer between two distinct accounts.
func (g *gen) planTx(id, from string, accounts []string) *core.Transaction {
	to := accounts[g.rng.Intn(len(accounts))]
	for to == from {
		to = accounts[g.rng.Intn(len(accounts))]
	}
	return &core.Transaction{
		ID: id, From: from, To: to,
		AmountCents: 1 + int64(g.rng.Intn(amountMaxCents)),
		Currency:    "EUR",
	}
}

// errUnexpected reports a protocol answer of the wrong type.
func errUnexpected(step string, got any) error {
	if out, ok := got.(*core.Outcome); ok {
		return fmt.Errorf("%s refused: %s", step, out.Reason)
	}
	return fmt.Errorf("%s: unexpected answer %T", step, got)
}

// runQuote is the quote-rsa closed loop: a timed submit phase, every
// confirmation's evidence minted off the clock, then a timed confirm
// phase. Each transaction's latency is its submit plus confirm round
// trips.
func (g *gen) runQuote(n int, accounts []string) *runResult {
	type slot struct {
		tx        *core.Transaction
		ch        *core.Challenge
		evidence  []byte
		seq, root uint64
		submitRT  time.Duration
		err       error
		start     int64
	}
	slots := make([]slot, n)
	res := &runResult{submitted: map[string]bool{}}
	for i := range slots {
		tx := g.planTx(fmt.Sprintf("tx-%d", i), accounts[g.rng.Intn(len(accounts))], accounts)
		slots[i] = slot{tx: tx, seq: g.txSeq.Add(1)}
		res.submitted[tx.ID] = true
	}
	conns := g.sys.conns
	tr := g.tr
	parallel := func(workers int, f func(w, i int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					f(w, i)
				}
			}(w)
		}
		wg.Wait()
	}

	res.meter.begin()
	parallel(closedLoopDepth, func(w, i int) {
		sl := &slots[i]
		if tr.recording() {
			sl.root, sl.start = tr.newID(), tr.now()
		}
		t0 := time.Now()
		resp, err := g.call(conns[w%len(conns)], sl.root, sl.seq, &core.SubmitTx{Tx: sl.tx})
		sl.submitRT = time.Since(t0)
		if err != nil {
			sl.err = fmt.Errorf("submit: %w", err)
			return
		}
		ch, ok := resp.(*core.Challenge)
		if !ok {
			sl.err = errUnexpected("submit", resp)
			return
		}
		sl.ch = ch
	})
	res.meter.end()

	parallel(genMinters, func(_, i int) {
		sl := &slots[i]
		if sl.ch == nil {
			return
		}
		sl.err = g.mint(func() error {
			var err error
			sl.evidence, err = g.platform.ConfirmEvidence(sl.ch.Nonce, sl.ch.Tx.Digest(), true)
			return err
		})
	})

	lat := make([]time.Duration, n)
	res.meter.begin()
	parallel(closedLoopDepth, func(w, i int) {
		sl := &slots[i]
		if sl.err != nil {
			return
		}
		t0 := time.Now()
		resp, err := g.call(conns[w%len(conns)], sl.root, sl.seq, &core.ConfirmTx{
			Nonce: sl.ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: sl.evidence,
		})
		lat[i] = sl.submitRT + time.Since(t0)
		if tr.recording() {
			tr.add(span{Name: spanTx, ID: sl.root, Tx: sl.seq, Start: sl.start, End: tr.now()})
		}
		if err != nil {
			sl.err = fmt.Errorf("confirm: %w", err)
			return
		}
		if out, ok := resp.(*core.Outcome); !ok || !out.Accepted {
			sl.err = errUnexpected("confirm", resp)
		}
	})
	res.meter.end()

	var firstErr error
	for i := range slots {
		res.attempted++
		if err := slots[i].err; err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		res.accepted = append(res.accepted, slots[i].tx.ID)
		res.lat = append(res.lat, lat[i])
	}
	if firstErr != nil {
		logf("quote-rsa: %d of %d transactions failed; first: %v", res.failed, n, firstErr)
	}
	res.retries = g.retries.Load()
	res.mint = time.Duration(g.mintNS.Load())
	return res
}

// user is one open-loop customer: one account, one attested session,
// at most one transaction in flight (session counters are strictly
// ordered).
type user struct {
	idx    int
	acct   string
	conn   *wire.Client
	sess   *workload.SessionMaterial
	budget int // confirmations the session may still carry
	opens  uint64
	queue  []*arrival    // this user's arrivals, in time order
	due    chan struct{} // one token per arrival, sent when it falls due
}

// arrival is one scheduled transaction.
type arrival struct {
	at   time.Duration // offset from the start of the timed phase
	user *user
	tx   *core.Transaction
}

// openSession runs the attested session establishment: challenge,
// quote-verified proof (minted under the minting bound), grant.
func (g *gen) openSession(u *user, root, seq uint64) error {
	resp, err := g.call(u.conn, root, seq, &core.SessionOpen{PlatformID: g.platform.PlatformID, Account: u.acct})
	if err != nil {
		return fmt.Errorf("session open: %w", err)
	}
	ch, ok := resp.(*core.SessionChallenge)
	if !ok {
		return errUnexpected("session open", resp)
	}
	u.opens++
	sid := uint64(u.idx+1)<<32 | u.opens
	var sess *workload.SessionMaterial
	var evidence []byte
	if err := g.mint(func() error {
		var err error
		sess, evidence, err = g.platform.OpenSessionEvidence(ch.Nonce, u.acct, sid, ch.ProviderPubDER, ch.KexPub)
		return err
	}); err != nil {
		return err
	}
	resp, err = g.call(u.conn, root, seq, &core.SessionProve{
		Nonce: ch.Nonce, PlatformID: g.platform.PlatformID, Account: u.acct,
		SessionID: sid, EncKey: sess.EncKey, Evidence: evidence,
	})
	if err != nil {
		return fmt.Errorf("session prove: %w", err)
	}
	grant, ok := resp.(*core.SessionGrant)
	if !ok {
		return errUnexpected("session prove", resp)
	}
	u.sess, u.budget = sess, int(grant.MaxTx)
	return nil
}

// errRequote marks a session refusal: the protocol's answer is a fresh
// quote-verified open and a resubmission under the same ID.
var errRequote = errors.New("session refused; re-quote required")

// sessionTx is one transaction under the user's session: submit, MAC,
// confirm. A session the provider no longer honours is re-opened and
// the transaction resubmitted once.
func (g *gen) sessionTx(u *user, tx *core.Transaction, root, seq uint64) error {
	err := g.sessionTxOnce(u, tx, root, seq)
	if errors.Is(err, errRequote) {
		g.retries.Add(1)
		u.sess = nil
		err = g.sessionTxOnce(u, tx, root, seq)
	}
	return err
}

func (g *gen) sessionTxOnce(u *user, tx *core.Transaction, root, seq uint64) error {
	if u.sess == nil || u.budget <= 0 {
		if err := g.openSession(u, root, seq); err != nil {
			return err
		}
	}
	resp, err := g.call(u.conn, root, seq, &core.SubmitTx{Tx: tx})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	ch, ok := resp.(*core.Challenge)
	if !ok {
		return errUnexpected("submit", resp)
	}
	counter, mac := u.sess.ConfirmMAC(ch.Nonce, ch.Tx.Digest(), true)
	u.budget--
	resp, err = g.call(u.conn, root, seq, &core.ConfirmTxSession{
		Nonce: ch.Nonce, Confirmed: true, SessionID: u.sess.ID, Counter: counter, MAC: mac,
	})
	if err != nil {
		return fmt.Errorf("confirm: %w", err)
	}
	out, ok := resp.(*core.Outcome)
	switch {
	case !ok:
		return errUnexpected("confirm", resp)
	case out.Accepted:
		return nil
	case out.Retryable:
		return fmt.Errorf("%w: %s", errRequote, out.Reason)
	}
	return errUnexpected("confirm", resp)
}

// newUsers builds the open-loop population: user i owns accounts[i]
// and talks over connection i mod genConns. Each opens its session off
// the clock, two at a time.
func (g *gen) newUsers(accounts []string) ([]*user, error) {
	users := make([]*user, len(accounts))
	for i, a := range accounts {
		users[i] = &user{idx: i, acct: a, conn: g.sys.conns[i%len(g.sys.conns)]}
	}
	errs := make(chan error, genMinters)
	var wg sync.WaitGroup
	for w := 0; w < genMinters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(users); i += genMinters {
				if err := g.openSession(users[i], 0, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("warm-up session open: %w", err)
	}
	// A population that has been running for a while is spread evenly
	// over its sessions' budgets. Each user's client re-quotes its first
	// session early, after a seeded share of the budget, so re-quotes
	// arrive at that steady rate from the first due time on.
	for _, u := range users {
		u.budget = 1 + g.rng.Intn(u.budget)
	}
	return users, nil
}

// schedule draws n arrivals of a Poisson process over n/rate seconds
// (n uniform due times, the process conditioned on its count, so every
// round offers exactly its share of the run), each for a uniformly
// chosen user. It returns them in time order and queues each with its
// user.
func (g *gen) schedule(users []*user, accounts []string, n int, rate float64) []*arrival {
	span := float64(n) / rate
	due := make([]float64, n)
	for i := range due {
		due[i] = g.rng.Float64() * span
	}
	sort.Float64s(due)
	plan := make([]*arrival, n)
	for i, t := range due {
		u := users[g.rng.Intn(len(users))]
		a := &arrival{at: time.Duration(t * float64(time.Second)), user: u,
			tx: g.planTx(fmt.Sprintf("tx-%d", i), u.acct, accounts)}
		u.queue = append(u.queue, a)
		plan[i] = a
	}
	for _, u := range users {
		u.due = make(chan struct{}, len(u.queue))
	}
	return plan
}

// wakeEarly is how long before a due time the dispatcher's sleep ends:
// Linux's default timer slack (50 µs), by which a sleep may end late,
// plus the ~25 µs a sleeping vCPU takes to run again on a 2-vCPU host.
const wakeEarly = 75 * time.Microsecond

// dispatch hands every arrival to its user when it falls due. It sleeps
// with nanosleep until wakeEarly before the due time and spins the rest:
// the runtime's timers wake an otherwise idle process only to the
// millisecond (its poller waits in epoll_wait), and that lateness would
// be timed as the system's.
func dispatch(start time.Time, plan []*arrival) {
	for _, a := range plan {
		due := start.Add(a.at)
		for wait := time.Until(due) - wakeEarly; wait > 0; wait = time.Until(due) - wakeEarly {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
		}
		for time.Now().Before(due) {
		}
		a.user.due <- struct{}{}
		// Run the user on this thread now rather than wake another one.
		runtime.Gosched()
	}
}

// runOpen is the open loop: the dispatcher releases each arrival when
// it falls due, and every user works through its arrivals in order,
// each timed from when it was due. A user still busy with its previous
// transaction starts the next one late, and that wait is part of the
// next one's latency. When the user was idle, the time from due to its
// start is the generator's own lateness, recorded as lag.
func (g *gen) runOpen(users []*user, plan []*arrival) *runResult {
	res := &runResult{submitted: make(map[string]bool, len(plan))}
	for _, a := range plan {
		res.submitted[a.tx.ID] = true
	}
	var mu sync.Mutex
	var firstErr error
	tr := g.tr
	start := time.Now().Add(10 * time.Millisecond)
	res.meter.begin()
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u *user) {
			defer wg.Done()
			var lat, lag durations
			var ok []string
			failed := 0
			idleSince := start
			for _, a := range u.queue {
				<-u.due
				due := start.Add(a.at)
				if idleSince.Before(due) {
					lag = append(lag, time.Since(due))
				}
				var root, seq uint64
				var t0 int64
				if tr.recording() {
					root, seq, t0 = tr.newID(), g.txSeq.Add(1), tr.now()-int64(time.Since(due))
				}
				err := g.sessionTx(u, a.tx, root, seq)
				done := time.Since(due)
				idleSince = time.Now()
				if tr.recording() {
					tr.add(span{Name: spanTx, ID: root, Tx: seq, Start: t0, End: tr.now()})
				}
				if err != nil {
					failed++
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("user %d tx %s: %w", u.idx, a.tx.ID, err)
					}
					mu.Unlock()
					continue
				}
				ok = append(ok, a.tx.ID)
				lat = append(lat, done)
			}
			mu.Lock()
			res.attempted += len(u.queue)
			res.failed += failed
			res.accepted = append(res.accepted, ok...)
			res.lat = append(res.lat, lat...)
			res.lag = append(res.lag, lag...)
			mu.Unlock()
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dispatch(start, plan)
	}()
	wg.Wait()
	res.meter.end()
	// Goodput is over the schedule: from the first due time, not from
	// launching the users' goroutines.
	res.meter.wall = time.Since(start)
	if firstErr != nil {
		logf("open loop: %d of %d transactions failed; first: %v", res.failed, res.attempted, firstErr)
	}
	res.retries = g.retries.Load()
	res.mint = time.Duration(g.mintNS.Load())
	return res
}
