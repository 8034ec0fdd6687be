package oracle

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"unitp/internal/fleet"
	"unitp/internal/workload"
)

// cleanRun drives quote-confirmed transactions through a two-shard
// fleet, from one payer homed on each shard, and returns the finished
// state the oracle reads.
func cleanRun(t *testing.T) (shards []shard, opening, want map[string]int64) {
	t.Helper()
	ring := fleet.NewRing(2, 0)
	payers := make([]string, 2)
	for i := 0; payers[0] == "" || payers[1] == ""; i++ {
		name := fmt.Sprintf("payer-%d", i)
		if s := ring.Shard(name); payers[s] == "" {
			payers[s] = name
		}
	}
	opening = map[string]int64{payers[0]: 1_000_000, payers[1]: 1_000_000, "bob": 0}
	d, err := workload.NewFleet(workload.FleetConfig{Seed: 11, Shards: 2, Accounts: opening})
	if err != nil {
		t.Fatal(err)
	}
	user := workload.DefaultUser(d.Rng.Fork("user"))
	user.AttachTo(d.Machine)
	want = map[string]int64{}
	for _, payer := range payers {
		stream := workload.NewTxStream(d.Rng.Fork("txs-"+payer), workload.TxStreamConfig{From: payer})
		for i := 0; i < 2; i++ {
			tx, _ := stream.Next()
			user.Intend(tx)
			out, err := d.Client.SubmitTransaction(tx)
			if err != nil || !out.Accepted {
				t.Fatalf("%s: err=%v outcome=%+v", tx.ID, err, out)
			}
			want[tx.ID] = tx.AmountCents
		}
	}
	for _, sh := range d.Router.Shards() {
		shards = append(shards, snapshot(sh.Primary(), opening))
	}
	return shards, opening, want
}

func TestCleanRunIsSound(t *testing.T) {
	shards, opening, want := cleanRun(t)
	r := check(shards, opening, want)
	if err := r.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	for i, s := range shards {
		if len(s.History) != 2 {
			t.Errorf("shard %d executed %d transactions, want 2", i, len(s.History))
		}
		if r.Audit[i] == nil || r.Audit[i].Reverified != 2 {
			t.Errorf("shard %d audit replay: %+v, want 2 re-verified quotes", i, r.Audit[i])
		}
	}
}

// Each doctored copy of a clean run must be reported with its kind.
func TestDoctoredRunsAreReported(t *testing.T) {
	shards, opening, want := cleanRun(t)
	first := shards[0].History[0]
	cases := []struct {
		name   string
		kind   error
		doctor func(shards []shard, opening, want map[string]int64)
	}{
		{"lost ID", ErrLost, func(_ []shard, _, want map[string]int64) {
			want["never-executed"] = 100
		}},
		{"ID executed on two shards", ErrDoubled, func(shards []shard, _, _ map[string]int64) {
			shards[1].History = append(shards[1].History, first)
		}},
		{"ID nobody wanted", ErrUnwanted, func(_ []shard, _, want map[string]int64) {
			delete(want, first.ID)
		}},
		{"wrong amount", ErrAmount, func(_ []shard, _, want map[string]int64) {
			want[first.ID]++
		}},
		{"opening balances disagree with the ledger", ErrBalance, func(_ []shard, opening, _ map[string]int64) {
			opening[first.From] += 7
		}},
		{"altered audit chain value", ErrAudit, func(shards []shard, _, _ map[string]int64) {
			shards[0].Audit[1].Chain[0] ^= 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doctored := make([]shard, len(shards))
			for i, s := range shards {
				doctored[i] = shard{
					History:  slices.Clone(s.History),
					Balances: maps.Clone(s.Balances),
					Audit:    slices.Clone(s.Audit),
					Verifier: s.Verifier,
				}
			}
			o, w := maps.Clone(opening), maps.Clone(want)
			c.doctor(doctored, o, w)
			if err := check(doctored, o, w).Err(); !errors.Is(err, c.kind) {
				t.Fatalf("got %v, want a %v", err, c.kind)
			}
		})
	}
}
