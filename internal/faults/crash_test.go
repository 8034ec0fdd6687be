package faults

import (
	"errors"
	"testing"

	"unitp/internal/sim"
	"unitp/internal/store"
)

// driveStore runs a fixed op sequence (snapshot, then appends+syncs)
// against a fresh mem backend with the plan hooked in, returning the
// error that stopped it (nil if it ran to completion).
func driveStore(b *store.MemBackend, plan *CrashPlan, appends int) error {
	s, err := store.Open(b)
	if err != nil {
		return err
	}
	b.SetCrashHook(plan.Hook)
	defer b.SetCrashHook(nil)
	if err := s.WriteSnapshot([]byte("seed"), 0, nil); err != nil {
		return err
	}
	for i := 0; i < appends; i++ {
		if err := s.Append([]byte{byte(i)}); err != nil {
			return err
		}
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func TestScheduledCrashFires(t *testing.T) {
	for _, point := range CrashPoints() {
		b := store.NewMemBackend()
		plan := NewCrashPlan(sim.NewRand(1), CrashRates{}).ScheduleCrash(point, 0)
		err := driveStore(b, plan, 4)
		if !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("%v: drive err = %v, want ErrCrashed", point, err)
		}
		st := plan.Stats()
		if st.Crashes[point] != 1 || st.Total() != 1 {
			t.Fatalf("%v: stats = %+v, want exactly one crash at the point", point, st.Crashes)
		}
	}
}

func TestCrashPlanDeterminism(t *testing.T) {
	run := func() (error, CrashStats) {
		b := store.NewMemBackend()
		plan := NewCrashPlan(sim.NewRand(42).Fork("crash"), UniformCrash(0.05))
		err := driveStore(b, plan, 200)
		return err, plan.Stats()
	}
	err1, st1 := run()
	err2, st2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("determinism: err %v vs %v", err1, err2)
	}
	if st1.Consulted != st2.Consulted || st1.Total() != st2.Total() {
		t.Fatalf("determinism: stats %+v vs %+v", st1, st2)
	}
	for _, p := range CrashPoints() {
		if st1.Crashes[p] != st2.Crashes[p] {
			t.Fatalf("determinism: point %v: %d vs %d", p, st1.Crashes[p], st2.Crashes[p])
		}
	}
}

func TestDisarmSuppressesCrashes(t *testing.T) {
	b := store.NewMemBackend()
	plan := NewCrashPlan(sim.NewRand(7), UniformCrash(1.0)) // crash on first op when armed
	plan.Disarm()
	if err := driveStore(b, plan, 10); err != nil {
		t.Fatalf("disarmed drive: %v", err)
	}
	if plan.Stats().Total() != 0 {
		t.Fatalf("disarmed plan injected crashes: %+v", plan.Stats())
	}
	plan.Arm()
	b2 := store.NewMemBackend()
	if err := driveStore(b2, plan, 10); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("re-armed drive: %v, want ErrCrashed", err)
	}
}

func TestRecoveryPolicyTear(t *testing.T) {
	pending := make([]byte, 64)
	for i := range pending {
		pending[i] = byte(i)
	}

	clean := RecoveryPolicy{}.Tear(sim.NewRand(1))
	if got := clean("wal", append([]byte(nil), pending...)); len(got) != 0 {
		t.Fatalf("clean-loss tear kept %d bytes", len(got))
	}

	torn := RecoveryPolicy{TornWrite: true}.Tear(sim.NewRand(2))
	got := torn("wal", append([]byte(nil), pending...))
	if len(got) > len(pending) {
		t.Fatalf("torn tear grew the window: %d > %d", len(got), len(pending))
	}
	for i := range got {
		if got[i] != pending[i] {
			t.Fatalf("torn tear is not a prefix at byte %d", i)
		}
	}

	garb := RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.Tear(sim.NewRand(3))
	if got := garb("wal", append([]byte(nil), pending...)); len(got) == 0 {
		t.Fatalf("garbage tear returned nothing")
	}
}

// TestCrashRecoverCycle runs crash → tear → reopen repeatedly and
// checks the store always reopens with an intact record prefix.
func TestCrashRecoverCycle(t *testing.T) {
	root := sim.NewRand(99)
	b := store.NewMemBackend()
	plan := NewCrashPlan(root.Fork("crash"), UniformCrash(0.02))
	tear := RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.Tear(root.Fork("tear"))

	// Crash semantics mean "Append/Sync returned ErrCrashed" does NOT
	// mean the record is gone (after-sync crashes, torn writes keeping a
	// whole frame). The recovery invariant is prefix integrity: the
	// records that come back are exactly the first k of those appended,
	// unaltered, with k bounded by the attempts.
	attempted := 0
	for life := 0; life < 20; life++ {
		plan.Disarm()
		s, err := store.Open(b)
		if err != nil {
			t.Fatalf("life %d: open: %v", life, err)
		}
		recs := s.Records()
		if len(recs) > attempted {
			t.Fatalf("life %d: recovered %d records, more than the %d appended", life, len(recs), attempted)
		}
		for i, r := range recs {
			if len(r) != 1 || r[0] != byte(i) {
				t.Fatalf("life %d: record %d = %v, not the appended prefix", life, i, r)
			}
		}
		if err := s.WriteSnapshot([]byte("state"), 0, nil); err != nil {
			t.Fatalf("life %d: rotate: %v", life, err)
		}
		attempted = 0
		b.SetCrashHook(plan.Hook)
		plan.Arm()
		crashed := false
		for i := 0; i < 50; i++ {
			attempted++ // before Append: an after-write crash can still persist the record
			if err := s.Append([]byte{byte(i)}); err != nil {
				crashed = true
				break
			}
			if err := s.Sync(); err != nil {
				crashed = true
				break
			}
		}
		b.SetCrashHook(nil)
		if crashed {
			b.Recover(tear)
		} else {
			s.Close()
		}
	}
	if plan.Stats().Total() == 0 {
		t.Fatalf("sweep injected no crashes; rate too low for the test to mean anything")
	}
}
