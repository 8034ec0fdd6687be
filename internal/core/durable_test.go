package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// durableRig extends rig with a crash-hooked in-memory store and the
// machinery to restart the provider after an injected crash. The
// client's transport dispatches through an indirection, so a restored
// provider transparently replaces the dead one — the same "server
// address" across restarts, as a client would see it.
type durableRig struct {
	*rig
	backend   *store.MemBackend
	plan      *faults.CrashPlan
	tear      func(name string, pending []byte) []byte
	snapEvery int
	lives     int
}

func newDurableRig(t *testing.T, snapEvery int, plan *faults.CrashPlan, tear func(string, []byte) []byte) *durableRig {
	t.Helper()
	r := newRig(t, nil)
	d := &durableRig{
		rig:       r,
		backend:   store.NewMemBackend(),
		plan:      plan,
		tear:      tear,
		snapEvery: snapEvery,
	}
	r.provider.snapEvery = snapEvery
	st, err := store.Open(d.backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.provider.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	// Hook the crash plan only after the initial snapshot: setup is not
	// part of the modelled workload.
	d.backend.SetCrashHook(plan.Hook)
	r.client.transport = netsim.NewPipe(netsim.Config{
		Clock:  r.clock,
		Random: sim.NewRand(0xD1A1),
		Link:   netsim.LinkBroadband(),
	}, func(req []byte) ([]byte, error) { return d.provider.Handle(req) })
	return d
}

// restart models the full power-loss sequence: the in-memory provider
// is gone, the disk is torn per the recovery policy, and a fresh
// provider is rebuilt from the store with config (keys, PAL approvals)
// re-applied exactly as at first construction. The plan is disarmed for
// the duration so recovery cannot crash recursively.
func (d *durableRig) restart(t *testing.T) {
	t.Helper()
	d.lives++
	d.plan.Disarm()
	d.backend.SetCrashHook(nil)
	d.backend.Recover(d.tear)
	st, err := store.Open(d.backend)
	if err != nil {
		t.Fatalf("life %d: reopen store: %v", d.lives, err)
	}
	provKey, err := cryptoutil.PooledKey(3001) // same deterministic key as newRig
	if err != nil {
		t.Fatal(err)
	}
	p, err := RestoreProvider(ProviderConfig{
		Name:          "test-bank",
		CAPub:         d.ca.PublicKey(),
		Key:           provKey,
		Clock:         d.clock,
		Random:        sim.NewRand(0x11FE).Fork(fmt.Sprintf("life-%d", d.lives)),
		SnapshotEvery: d.snapEvery,
	}, st)
	if err != nil {
		t.Fatalf("life %d: restore provider: %v", d.lives, err)
	}
	p.Verifier().ApprovePAL(ConfirmPALName, cryptoutil.SHA1(ConfirmPALImage()))
	p.Verifier().ApprovePAL(PresencePALName, cryptoutil.SHA1(PresencePALImage()))
	p.Verifier().ApprovePAL(ProvisionPALName,
		cryptoutil.SHA1(ProvisionPALImage(p.PublicKeyDER())))
	p.Verifier().ApprovePAL(PINPALName, cryptoutil.SHA1(PINPALImage()))
	p.Verifier().ApprovePAL(BatchPALName, cryptoutil.SHA1(BatchPALImage()))
	d.rig.provider = p
	d.backend.SetCrashHook(d.plan.Hook)
	d.plan.Arm()
}

// driveCrashWorkload pushes numTx payments of 1000 cents each through
// the trusted path, restarting the provider whenever a crash kills a
// session, until every transaction reports accepted.
func driveCrashWorkload(t *testing.T, d *durableRig, numTx, maxAttempts int) {
	t.Helper()
	d.alwaysApprove()
	for i := 0; i < numTx; i++ {
		tx := payment(fmt.Sprintf("crash-tx-%d", i), "bob", 1_000)
		for attempt := 0; ; attempt++ {
			if attempt >= maxAttempts {
				t.Fatalf("tx %d: no progress after %d attempts", i, attempt)
			}
			outcome, err := d.client.SubmitTransaction(tx)
			if err != nil {
				// The session died mid-flight — power-cycle the provider
				// and retry the same order (same ID: the idempotence key).
				d.restart(t)
				continue
			}
			if !outcome.Accepted {
				t.Fatalf("tx %d attempt %d: outcome = %+v", i, attempt, outcome)
			}
			break
		}
	}
}

// assertRecoveryInvariants restarts once more and checks every durable
// invariant the paper's provider depends on: exactly-once execution,
// restored state identical to the live state it replaced, a verifying
// audit chain (structural and full auditor replay), and no
// double-redeemed nonces.
func assertRecoveryInvariants(t *testing.T, d *durableRig, wantBob int64) {
	t.Helper()
	live := d.provider
	liveBalances, liveHistory := live.ledger.exportBalances(), live.ledger.History()
	liveHead := live.audit.Head()

	d.restart(t)
	p := d.provider

	balances, history := p.ledger.exportBalances(), p.ledger.History()
	if balances["bob"] != wantBob {
		t.Fatalf("bob = %d, want %d (lost or double-applied transfers)", balances["bob"], wantBob)
	}
	if balances["alice"] != 100_000-wantBob {
		t.Fatalf("alice = %d, want %d", balances["alice"], 100_000-wantBob)
	}
	seen := map[string]bool{}
	for i := range history {
		if seen[history[i].ID] {
			t.Fatalf("duplicate ledger apply: %s", history[i].ID)
		}
		seen[history[i].ID] = true
	}

	// The store must reproduce the live provider it replaced, exactly.
	if len(history) != len(liveHistory) {
		t.Fatalf("restored history %d entries, live had %d", len(history), len(liveHistory))
	}
	for name, v := range liveBalances {
		if balances[name] != v {
			t.Fatalf("restored balance %s = %d, live had %d", name, balances[name], v)
		}
	}
	if p.audit.Head() != liveHead {
		t.Fatal("audit chain head diverged across restart")
	}

	entries := p.audit.Entries()
	if err := VerifyAuditChain(entries); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
	report, err := ReplayAudit(entries, p.Verifier())
	if err != nil {
		t.Fatalf("auditor replay over restored log: %v", err)
	}
	if report.Entries != len(entries) {
		t.Fatalf("auditor replay covered %d of %d entries", report.Entries, len(entries))
	}

	// Each redemption consumed a distinct nonce: a double redemption
	// would bump the counter without growing the spent set.
	_, spent, _, redeemed := p.nonces.Export()
	if len(spent) != redeemed {
		t.Fatalf("double redemption: %d spent nonces for %d redemptions", len(spent), redeemed)
	}
}

// TestCrashPointSweepInvariants schedules exactly one crash at every
// injectable crash point, across snapshot intervals, and checks the
// recovery invariants hold after the workload completes. snapEvery 0
// exercises pure WAL-tail replay (no rotation ever runs while armed, so
// mid-snapshot is skipped there).
func TestCrashPointSweepInvariants(t *testing.T) {
	for _, point := range faults.CrashPoints() {
		for _, snapEvery := range []int{0, 1, 3} {
			if point == faults.CrashMidSnapshot && snapEvery == 0 {
				continue
			}
			point, snapEvery := point, snapEvery
			t.Run(fmt.Sprintf("%v-snap%d", point, snapEvery), func(t *testing.T) {
				plan := faults.NewCrashPlan(sim.NewRand(0xABC), faults.CrashRates{}).
					ScheduleCrash(point, 1)
				tear := faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.
					Tear(sim.NewRand(0x7EA1))
				d := newDurableRig(t, snapEvery, plan, tear)
				driveCrashWorkload(t, d, 5, 8)
				if d.plan.Stats().Total() == 0 {
					t.Fatal("scheduled crash never fired; sweep tested nothing")
				}
				assertRecoveryInvariants(t, d, 5*1_000)
			})
		}
	}
}

// TestCrashStormInvariants drives a longer workload under probabilistic
// crashes at every point simultaneously, with torn writes and trailing
// garbage on every recovery — the multi-crash interaction test.
func TestCrashStormInvariants(t *testing.T) {
	root := sim.NewRand(0x57A6)
	plan := faults.NewCrashPlan(root.Fork("crash"), faults.UniformCrash(0.03))
	tear := faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.Tear(root.Fork("tear"))
	d := newDurableRig(t, 4, plan, tear)
	driveCrashWorkload(t, d, 12, 40)
	if plan.Stats().Total() == 0 {
		t.Fatal("storm injected no crashes; raise the rate")
	}
	assertRecoveryInvariants(t, d, 12*1_000)
}

// TestRetransmissionStraddlesCrash captures a raw ConfirmTx frame,
// power-cycles the provider after the confirmation committed, and
// replays the frame against the restored provider: the idempotent-
// replay cache must answer from the WAL-recovered state without
// executing the transaction twice.
func TestRetransmissionStraddlesCrash(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{})
	d := newDurableRig(t, 0, plan, faults.RecoveryPolicy{}.Tear(sim.NewRand(2)))

	var confirmFrame []byte
	d.os.AddInterceptor(func(p []byte) []byte {
		if msg, err := DecodeMessage(p); err == nil {
			if _, ok := msg.(*ConfirmTx); ok {
				confirmFrame = append([]byte(nil), p...)
			}
		}
		return p
	})
	d.pressOnce('y')
	outcome, err := d.client.SubmitTransaction(payment("straddle", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("setup outcome = %+v", outcome)
	}
	if confirmFrame == nil {
		t.Fatal("no confirmation frame captured")
	}

	// Power loss after the response left: everything committed is
	// durable, the in-memory provider is gone.
	d.restart(t)

	respBytes, err := d.provider.Handle(confirmFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp := mustDecode(t, respBytes).(*Outcome)
	if !resp.Accepted {
		t.Fatalf("cached outcome lost across the crash: %+v", resp)
	}
	if bal, _ := d.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("straddling retransmission double-spent: bob = %d", bal)
	}
}

// TestOutOfBandMutationsSurviveCrash checks that BindPlatform and
// EnrollCredential — durable mutations outside the request path — come
// back after a restart.
func TestOutOfBandMutationsSurviveCrash(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(3), faults.CrashRates{})
	d := newDurableRig(t, 0, plan, faults.RecoveryPolicy{}.Tear(sim.NewRand(4)))

	if err := d.provider.BindPlatform("alice", "client-platform"); err != nil {
		t.Fatal(err)
	}
	if err := d.provider.EnrollCredential("carol", "1357"); err != nil {
		t.Fatal(err)
	}
	d.restart(t)
	if got := d.provider.boundPlatform("alice"); got != "client-platform" {
		t.Fatalf("binding lost: %q", got)
	}
	// Re-enrolling must now collide with the restored credential.
	if err := d.provider.EnrollCredential("carol", "0000"); err == nil {
		t.Fatal("restored provider forgot carol's credential")
	}
}

func TestAuditEntryRoundTripTamper(t *testing.T) {
	log := NewAuditLog()
	var nonce attest.Nonce
	for i := range nonce {
		nonce[i] = byte(i + 1)
	}
	entry := log.Append(AuditEntry{
		Kind:      AuditConfirm,
		Note:      "round-trip",
		At:        time.Unix(0, 1_234_567_890),
		TxID:      "tx-rt",
		TxDigest:  cryptoutil.SHA1([]byte("canonical tx bytes")),
		Confirmed: true,
		Nonce:     nonce,
		Evidence:  []byte("opaque evidence blob"),
	})
	data := entry.Marshal()
	got, err := UnmarshalAuditEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != entry.Seq || got.Kind != entry.Kind || got.Note != entry.Note ||
		!got.At.Equal(entry.At) || got.TxID != entry.TxID || got.TxDigest != entry.TxDigest ||
		got.Confirmed != entry.Confirmed || got.Nonce != entry.Nonce ||
		!bytes.Equal(got.Evidence, entry.Evidence) ||
		got.PrevChain != entry.PrevChain || got.Chain != entry.Chain {
		t.Fatalf("round trip changed the entry:\n got %+v\nwant %+v", got, entry)
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshal differs from original encoding")
	}

	// Flip every single bit: the mutation must be caught either at
	// decode or by the chain check on restore — never silently accepted.
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			g, err := UnmarshalAuditEntry(mut)
			if err != nil {
				continue
			}
			fresh := NewAuditLog()
			if fresh.Restore(*g) == nil {
				t.Fatalf("bit flip at byte %d bit %d survived chain verification", i, bit)
			}
		}
	}
}

func TestTransactionRoundTripTamper(t *testing.T) {
	tx := &Transaction{
		ID: "tx-rt", From: "alice", To: "bob",
		AmountCents: 123_456, Currency: "EUR", Memo: "invoice 42",
	}
	data := tx.Marshal()
	got, err := UnmarshalTransaction(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *tx {
		t.Fatalf("round trip changed the transaction: %+v", got)
	}
	if got.Digest() != tx.Digest() {
		t.Fatal("round trip changed the digest")
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			g, err := UnmarshalTransaction(mut)
			if err != nil {
				continue
			}
			if g.Digest() == tx.Digest() {
				t.Fatalf("bit flip at byte %d bit %d invisible to the digest", i, bit)
			}
		}
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	o := &Outcome{
		Accepted: true, Authentic: true, Reason: "confirmed by user",
		TxID: "tx-9", Token: "session-00ff", Retryable: false,
	}
	got, err := unmarshalOutcome(marshalOutcome(o))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *o {
		t.Fatalf("outcome round trip: got %+v, want %+v", got, o)
	}
}

// TestProviderSnapshotRoundTrip checks loadHistory+loadState then
// encodeState is a fixed point: a provider restored from the history
// log and a snapshot re-encodes to the exact same bytes (the
// determinism WriteSnapshot and the sweep rely on).
func TestProviderSnapshotRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.pressOnce('y')
	if _, err := r.client.SubmitTransaction(payment("snap-rt", "bob", 2_000)); err != nil {
		t.Fatal(err)
	}
	state := r.provider.encodeState()
	history := encodeHistory(r.provider.audit.Entries(), r.provider.ledger.History())

	p2 := NewProvider(ProviderConfig{Name: "clone", Clock: r.clock})
	if err := p2.loadHistory(history); err != nil {
		t.Fatal(err)
	}
	if err := p2.loadState(state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p2.encodeState(), state) {
		t.Fatal("snapshot round trip is not a fixed point")
	}
	if bal, _ := p2.Ledger().Balance("bob"); bal != 2_000 {
		t.Fatalf("restored bob = %d", bal)
	}
	if p2.audit.Head() != r.provider.audit.Head() {
		t.Fatal("restored audit head differs")
	}
	if len(p2.ledger.History()) != 1 {
		t.Fatalf("restored history = %v", p2.ledger.History())
	}

	// The snapshot names how much history it builds on: loading it over
	// a history log that is one record short must fail, not restore a
	// provider whose audit log or ledger history silently lost entries.
	for drop := range history {
		short := append(append([][]byte(nil), history[:drop]...), history[drop+1:]...)
		p3 := NewProvider(ProviderConfig{Name: "short", Clock: r.clock})
		if err := p3.loadHistory(short); err != nil {
			continue // a dropped audit entry breaks the chain at load
		}
		if err := p3.loadState(state); err == nil {
			t.Fatalf("snapshot loaded over a history log missing record %d", drop)
		}
	}
}

// TestSnapshotV1Refused checks a version-1 provider snapshot, which
// kept the audit log and ledger history inline, is refused with an
// error naming the version instead of being misread.
func TestSnapshotV1Refused(t *testing.T) {
	r := newRig(t, nil)
	state := r.provider.encodeState()
	state[0] = 1
	p2 := NewProvider(ProviderConfig{Name: "clone", Clock: r.clock})
	err := p2.loadState(state)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 snapshot: err = %v, want a refusal naming version 1", err)
	}
}

// TestCrashMidRotationWithHistory crashes at every backend operation of
// a rotation that appends to the history log — history write and sync,
// snapshot create, write, sync and rename, WAL create, and removal of
// the old generation — and recovers with torn and garbage tails on
// every unsynced byte. Each recovery must reproduce the audit head,
// History() and balances of the run without a crash, and the restart's
// own rotation (a new history file holding everything) must restore the
// same state once more.
func TestCrashMidRotationWithHistory(t *testing.T) {
	hit := map[string]bool{}
	for crashAt := 0; ; crashAt++ {
		plan := faults.NewCrashPlan(sim.NewRand(5), faults.CrashRates{})
		tear := faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.
			Tear(sim.NewRand(0x7EA3).Fork(fmt.Sprint(crashAt)))
		d := newDurableRig(t, 0, plan, tear)
		d.alwaysApprove()
		submit := func(id string) {
			t.Helper()
			outcome, err := d.client.SubmitTransaction(payment(id, "bob", 1_000))
			if err != nil || !outcome.Accepted {
				t.Fatalf("crashAt=%d: %s: %+v, %v", crashAt, id, outcome, err)
			}
		}
		submit("rot-0")
		submit("rot-1")
		if err := d.provider.SnapshotNow(); err != nil { // starts the history file
			t.Fatal(err)
		}
		submit("rot-2")
		submit("rot-3")
		wantHead := d.provider.audit.Head()
		wantHistory := d.provider.ledger.History()
		wantBalances := d.provider.ledger.exportBalances()

		n := 0
		var fired store.CrashEvent
		d.backend.SetCrashHook(func(ev store.CrashEvent) bool {
			n++
			if n-1 == crashAt {
				fired = ev
				return true
			}
			return false
		})
		err := d.provider.SnapshotNow()
		d.backend.SetCrashHook(d.plan.Hook)
		if fired.Op == 0 {
			if err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
			break
		}
		name := fmt.Sprintf("crashAt=%d (%v %v %s)", crashAt, fired.Phase, fired.Op, fired.Name)
		hit[fmt.Sprintf("%v %s", fired.Op, strings.SplitN(fired.Name, "-", 2)[0])] = true
		if err == nil {
			t.Fatalf("%s: rotation survived an injected crash", name)
		}

		for life := 0; life < 2; life++ {
			d.restart(t)
			p := d.provider
			if p.audit.Head() != wantHead {
				t.Fatalf("%s life %d: audit head diverged", name, life)
			}
			if got := p.ledger.History(); fmt.Sprint(got) != fmt.Sprint(wantHistory) {
				t.Fatalf("%s life %d: History() = %v, want %v", name, life, got, wantHistory)
			}
			if got := p.ledger.exportBalances(); fmt.Sprint(got) != fmt.Sprint(wantBalances) {
				t.Fatalf("%s life %d: balances = %v, want %v", name, life, got, wantBalances)
			}
			if life == 1 {
				// Everything came back through the history file the
				// previous restart's rotation wrote: its WAL was empty.
				st := p.Store().Stats()
				if want := uint64(p.audit.Len() + len(wantHistory)); st.RecoveredHistory != want || st.RecoveredRecords != 0 {
					t.Fatalf("%s: reopened %d history records and %d WAL groups, want %d and 0",
						name, st.RecoveredHistory, st.RecoveredRecords, want)
				}
			}
		}
	}
	for _, want := range []string{
		"write hist", "sync hist",
		"create snap", "write snap", "sync snap", "rename snap",
		"create wal", "remove snap", "remove wal",
	} {
		if !hit[want] {
			t.Errorf("crash matrix never crashed at %q (hit %v)", want, hit)
		}
	}
}

// TestSnapshotSizeIndependentOfHistory runs N, then 4N, session
// confirmations, expiring their outcomes on the virtual clock and
// sweeping them before each rotation. The snapshot payload may grow
// only by the spent-nonce set; the audit log and ledger history go to
// the history log, each record exactly once across rotations.
func TestSnapshotSizeIndependentOfHistory(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(6), faults.CrashRates{})
	d := newDurableRig(t, 0, plan, nil)
	if err := d.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	d.alwaysApprove()
	const n = 8
	done := 0
	rotate := func(upTo int) (payload, spent int) {
		t.Helper()
		for ; done < upTo; done++ {
			outcome, err := d.client.SubmitTransaction(payment(fmt.Sprintf("size-%d", done), "bob", 100))
			if err != nil || !outcome.Accepted {
				t.Fatalf("tx %d: %+v, %v", done, outcome, err)
			}
		}
		p := d.provider
		d.clock.Sleep(p.ttl + time.Minute)
		p.GC()
		if err := p.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if got, want := p.Store().Stats().HistoryAppends, uint64(p.audit.Len()+len(p.ledger.History())); got != want {
			t.Fatalf("after %d confirmations the history log was written %d records, want each of %d once",
				upTo, got, want)
		}
		seg, err := p.Store().ReadSegment()
		if err != nil {
			t.Fatal(err)
		}
		_, spentSet, _, _ := p.nonces.Export()
		return len(seg.State), len(spentSet)
	}
	p1, s1 := rotate(n)
	p4, s4 := rotate(4 * n)
	if s4-s1 < 3*n {
		t.Fatalf("spent set grew by %d over %d confirmations", s4-s1, 3*n)
	}
	if grow := p4 - p1; grow != (s4-s1)*attest.NonceSize {
		t.Fatalf("snapshot payload grew %d B (%d → %d) from %d to %d confirmations; the spent-nonce set accounts for %d B",
			grow, p1, p4, n, 4*n, (s4-s1)*attest.NonceSize)
	}
}
