package fleet_test

import (
	"fmt"
	"testing"

	"unitp/internal/core"
	"unitp/internal/workload"
)

// TestBootstrapCarriesHistoryLog bootstraps an in-process follower from
// a primary whose store has rotated several times, so most of its audit
// log and ledger history live in the history log rather than in the
// snapshot or WAL, then promotes it. The promoted provider must hold the
// primary's audit head, History() and balances exactly.
func TestBootstrapCarriesHistoryLog(t *testing.T) {
	opening := map[string]int64{"payer": 1_000_000, "bob": 0}
	d, err := workload.NewFleet(workload.FleetConfig{
		Seed: 13, Shards: 1, Followers: 1, SnapshotEvery: 2, Accounts: opening,
	})
	if err != nil {
		t.Fatal(err)
	}
	user := workload.DefaultUser(d.Rng.Fork("user"))
	user.AttachTo(d.Machine)
	stream := workload.NewTxStream(d.Rng.Fork("txs"), workload.TxStreamConfig{From: "payer"})
	confirm := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _ := stream.Next()
			user.Intend(tx)
			out, err := d.Client.SubmitTransaction(tx)
			if err != nil || !out.Accepted {
				t.Fatalf("%s: err=%v outcome=%+v", tx.ID, err, out)
			}
		}
	}
	sh := d.Router.Shards()[0]

	// First lineage, then a failover onto the original follower, so the
	// primary the new follower bootstraps from is itself a restored one.
	confirm(3)
	if err := sh.Failover(sh.Epoch()); err != nil {
		t.Fatal(err)
	}
	before := sh.Primary().Store().Stats().Snapshots
	confirm(4)
	primary := sh.Primary()
	st := primary.Store().Stats()
	if st.Snapshots-before < 2 || st.HistoryAppends == 0 {
		t.Fatalf("primary rotated %d times with %d history records; the test needs at least two rotations writing history",
			st.Snapshots-before, st.HistoryAppends)
	}

	if err := sh.AddFollower(); err != nil {
		t.Fatal(err)
	}
	confirm(1) // a WAL tail past the bootstrap segment
	wantHead := primary.AuditLog().Head()
	wantHistory := primary.Ledger().History()
	wantEntries := primary.AuditLog().Len()

	if err := sh.Failover(sh.Epoch()); err != nil {
		t.Fatal(err)
	}
	promoted := sh.Primary()
	if promoted == primary {
		t.Fatal("failover kept the old primary")
	}
	if promoted.AuditLog().Head() != wantHead || promoted.AuditLog().Len() != wantEntries {
		t.Fatalf("promoted audit log: %d entries, head match %v; want %d entries and the primary's head",
			promoted.AuditLog().Len(), promoted.AuditLog().Head() == wantHead, wantEntries)
	}
	if got := promoted.Ledger().History(); fmt.Sprint(got) != fmt.Sprint(wantHistory) {
		t.Fatalf("promoted History() = %v, want %v", got, wantHistory)
	}
	for name := range opening {
		want, _ := primary.Ledger().Balance(name)
		if got, _ := promoted.Ledger().Balance(name); got != want {
			t.Fatalf("promoted balance %s = %d, want %d", name, got, want)
		}
	}
	if _, err := core.ReplayAudit(promoted.AuditLog().Entries(), promoted.Verifier()); err != nil {
		t.Fatalf("auditor replay over the promoted log: %v", err)
	}
}
