// Package oracle decides whether a finished run's history is sound. It
// is the one exactly-once check the experiments share: given the shard
// providers of a run, their opening balances, and the transactions that
// must have executed, it replays every shard's own records and names
// every violation.
//
// A run is sound when
//   - every wanted transaction executed exactly once across the fleet,
//     with the amount it was submitted with, and nothing else executed;
//   - every shard's balances equal its own ledger history replayed over
//     the opening balances (which is conservation, and every payer's
//     debit, in one check);
//   - every shard's audit log replays under that shard's verifier (the
//     hash chain link by link, and every quote re-verified).
package oracle

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"unitp/internal/attest"
	"unitp/internal/core"
)

// Violation kinds. Every error in a Report wraps exactly one of them.
var (
	// ErrLost: a wanted transaction executed nowhere.
	ErrLost = errors.New("oracle: wanted transaction never executed")

	// ErrDoubled: a transaction executed more than once fleet-wide.
	ErrDoubled = errors.New("oracle: transaction executed more than once")

	// ErrUnwanted: a transaction executed that nobody wanted.
	ErrUnwanted = errors.New("oracle: unwanted transaction executed")

	// ErrAmount: a wanted transaction executed with a different amount.
	ErrAmount = errors.New("oracle: transaction executed with a different amount")

	// ErrBalance: a balance differs from the replayed ledger history, or
	// the history names an account without an opening balance.
	ErrBalance = errors.New("oracle: balance does not match replayed history")

	// ErrAudit: an audit log fails replay.
	ErrAudit = errors.New("oracle: audit log fails replay")
)

// shard is one provider's finished state as plain data.
type shard struct {
	// History is the ledger's executed transactions, in order.
	History []core.Transaction

	// Balances holds the closing balance of every account the ledger
	// knows among the opening accounts and those History touches.
	Balances map[string]int64

	// Audit is the provider's audit log.
	Audit []core.AuditEntry

	// Verifier is the attestation policy the audit log replays under.
	Verifier *attest.Verifier
}

// snapshot reads a provider's finished state for the accounts in
// opening plus every account its history touches.
func snapshot(p *core.Provider, opening map[string]int64) shard {
	s := shard{
		History:  p.Ledger().History(),
		Balances: map[string]int64{},
		Audit:    p.AuditLog().Entries(),
		Verifier: p.Verifier(),
	}
	read := func(name string) {
		if bal, err := p.Ledger().Balance(name); err == nil {
			s.Balances[name] = bal
		}
	}
	for name := range opening {
		read(name)
	}
	for i := range s.History {
		read(s.History[i].From)
		read(s.History[i].To)
	}
	return s
}

// Report is the verdict on one run.
type Report struct {
	// Audit holds each shard's audit replay, in shard order; nil where
	// the replay failed.
	Audit []*core.AuditReport

	// Errors names every violation; empty means the run is sound.
	Errors []error
}

// Err joins the violations into one error; nil when the run is sound.
func (r *Report) Err() error { return errors.Join(r.Errors...) }

func (r *Report) add(kind error, format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Errorf("%w: "+format, append([]any{kind}, args...)...))
}

// Check audits the shard providers of a finished run. Every shard opened
// with the balances in opening; want maps each transaction ID that must
// have executed to its amount in cents.
func Check(providers []*core.Provider, opening, want map[string]int64) *Report {
	shards := make([]shard, len(providers))
	for i, p := range providers {
		shards[i] = snapshot(p, opening)
	}
	return check(shards, opening, want)
}

// check is Check over plain per-shard data.
func check(shards []shard, opening, want map[string]int64) *Report {
	r := &Report{Audit: make([]*core.AuditReport, len(shards))}
	executed := map[string]int{}
	for i, s := range shards {
		replayed := maps.Clone(opening)
		for _, tx := range s.History {
			executed[tx.ID]++
			if amount, ok := want[tx.ID]; !ok {
				r.add(ErrUnwanted, "shard %d executed %s", i, tx.ID)
			} else if tx.AmountCents != amount {
				r.add(ErrAmount, "shard %d executed %s for %d cents, want %d", i, tx.ID, tx.AmountCents, amount)
			}
			for _, name := range []string{tx.From, tx.To} {
				if _, ok := replayed[name]; !ok {
					r.add(ErrBalance, "shard %d: %s moves money of %s, which has no opening balance", i, tx.ID, name)
					replayed[name] = 0
				}
			}
			replayed[tx.From] -= tx.AmountCents
			replayed[tx.To] += tx.AmountCents
		}
		for _, name := range sortedKeys(replayed) {
			if bal, ok := s.Balances[name]; !ok {
				r.add(ErrBalance, "shard %d has no account %s", i, name)
			} else if bal != replayed[name] {
				r.add(ErrBalance, "shard %d: %s holds %d cents, its history leaves %d", i, name, bal, replayed[name])
			}
		}
		report, err := core.ReplayAudit(s.Audit, s.Verifier)
		if err != nil {
			r.add(ErrAudit, "shard %d: %v", i, err)
			continue
		}
		r.Audit[i] = report
	}
	for _, id := range sortedKeys(executed) {
		if n := executed[id]; n > 1 {
			r.add(ErrDoubled, "%s executed %d times", id, n)
		}
	}
	for _, id := range sortedKeys(want) {
		if executed[id] == 0 {
			r.add(ErrLost, "%s", id)
		}
	}
	return r
}

// Submitted decodes pre-encoded SubmitTx frames into the want set Check
// takes: each transaction's ID mapped to its amount.
func Submitted(frames [][][]byte) (map[string]int64, error) {
	want := map[string]int64{}
	for _, wf := range frames {
		for _, frame := range wf {
			msg, err := core.DecodeMessage(frame)
			if err != nil {
				return nil, fmt.Errorf("oracle: decode submitted frame: %w", err)
			}
			sub, ok := msg.(*core.SubmitTx)
			if !ok {
				return nil, fmt.Errorf("oracle: submitted frame is %T, want SubmitTx", msg)
			}
			want[sub.Tx.ID] = sub.Tx.AmountCents
		}
	}
	return want, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
