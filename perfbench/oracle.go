package main

import (
	"fmt"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
)

// ledgerState is what the oracle compares between replicas.
type ledgerState struct {
	balances map[string]int64
	entries  int
	head     cryptoutil.Digest
}

func stateOf(p *core.Provider, accounts []string) (ledgerState, error) {
	st := ledgerState{balances: map[string]int64{}}
	for _, a := range accounts {
		b, err := p.Ledger().Balance(a)
		if err != nil {
			return st, err
		}
		st.balances[a] = b
	}
	entries := p.AuditLog().Entries()
	st.entries = len(entries)
	if n := len(entries); n > 0 {
		st.head = entries[n-1].Chain
	}
	return st, nil
}

// checkProvider is the per-run correctness oracle on the serving
// provider: every accepted transaction executed exactly once in the
// ledger history and confirmed exactly once in the audit log, nothing
// executed that was never sent, money conserved, and the audit hash
// chain intact.
func checkProvider(p *core.Provider, res *runResult, accounts []string, balance int64) error {
	executed := map[string]int{}
	for _, tx := range p.Ledger().History() {
		executed[tx.ID]++
		if !res.submitted[tx.ID] {
			return fmt.Errorf("oracle: ledger executed %s, which the generator never sent", tx.ID)
		}
	}
	entries := p.AuditLog().Entries()
	confirmed := map[string]int{}
	for _, e := range entries {
		if (e.Kind == core.AuditConfirm || e.Kind == core.AuditSessionConfirm) && e.Confirmed {
			confirmed[e.TxID]++
		}
	}
	for _, id := range res.accepted {
		if executed[id] != 1 {
			return fmt.Errorf("oracle: accepted transaction %s executed %d times", id, executed[id])
		}
		if confirmed[id] != 1 {
			return fmt.Errorf("oracle: accepted transaction %s has %d audit confirmations", id, confirmed[id])
		}
	}
	for id, n := range executed {
		if n != 1 {
			return fmt.Errorf("oracle: transaction %s executed %d times", id, n)
		}
	}
	var sum int64
	for _, a := range accounts {
		b, err := p.Ledger().Balance(a)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		sum += b
	}
	if want := balance * int64(len(accounts)); sum != want {
		return fmt.Errorf("oracle: balances sum to %d, want %d", sum, want)
	}
	if err := core.VerifyAuditChain(entries); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

// checkFollowers restores every follower's data dir after shutdown and
// requires its balances and audit head to equal the primary's.
func checkFollowers(s *system, primary ledgerState) error {
	for m, dir := range s.memberDirs[1:] {
		p, err := s.restoreMember(dir)
		if err != nil {
			return fmt.Errorf("oracle: restore follower %d: %w", m+1, err)
		}
		got, err := stateOf(p, s.cfg.accounts)
		p.Store().Close()
		if err != nil {
			return fmt.Errorf("oracle: follower %d: %w", m+1, err)
		}
		if got.entries != primary.entries || got.head != primary.head {
			return fmt.Errorf("oracle: follower %d audit has %d entries (head %x), primary %d (head %x)",
				m+1, got.entries, got.head[:4], primary.entries, primary.head[:4])
		}
		for a, b := range primary.balances {
			if got.balances[a] != b {
				return fmt.Errorf("oracle: follower %d balance of %s is %d, primary %d", m+1, a, got.balances[a], b)
			}
		}
	}
	return nil
}
