package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
)

// The audit log gives the provider non-repudiation: every verified
// confirmation is recorded with its full evidence in a hash-chained,
// append-only log. In a dispute ("I never approved that transfer"), an
// independent auditor replays the log: the chain proves nothing was
// inserted, dropped, or reordered after the fact, and each entry's
// evidence re-verifies against the CA key and PAL policy — so the
// provider can prove a human at the certified platform approved exactly
// the disputed transaction.

// AuditKind classifies an audit entry. The zero value is a trusted-path
// confirmation, so existing call sites are unchanged.
type AuditKind uint8

// Audit entry kinds.
const (
	// AuditConfirm records a trusted-path confirmation (the default).
	AuditConfirm AuditKind = iota

	// AuditDowngrade records a client falling back from the trusted
	// path to the CAPTCHA gate after repeated session failures.
	AuditDowngrade

	// AuditFallbackTx records a transaction executed under the
	// degraded, CAPTCHA-gated regime (no attestation evidence).
	AuditFallbackTx

	// AuditSessionOpen records an attested session establishment: the
	// entry carries the full quote evidence, with TxDigest holding the
	// session binding (not a transaction digest) and TxID the account —
	// so an auditor re-verifies the open exactly as the provider did.
	AuditSessionOpen

	// AuditSessionConfirm records a transaction confirmed under an
	// attested session (HMAC over the session key). Chain-protected but
	// not independently re-verifiable; the session's opening entry
	// carries the attestation that anchored the key.
	AuditSessionConfirm
)

// String names the kind for reports.
func (k AuditKind) String() string {
	switch k {
	case AuditConfirm:
		return "confirm"
	case AuditDowngrade:
		return "downgrade"
	case AuditFallbackTx:
		return "fallback-tx"
	case AuditSessionOpen:
		return "session-open"
	case AuditSessionConfirm:
		return "session-confirm"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AuditEntry is one confirmed-transaction record.
type AuditEntry struct {
	// Seq is the entry's position in the chain (0-based).
	Seq uint64

	// Kind classifies the entry; zero means trusted-path confirmation.
	Kind AuditKind

	// Note carries human-readable context for non-confirmation entries
	// (e.g. the downgrade reason).
	Note string

	// At is the provider-side timestamp.
	At time.Time

	// TxID names the transaction.
	TxID string

	// TxDigest is the canonical transaction digest the human's
	// decision was bound to.
	TxDigest cryptoutil.Digest

	// Confirmed is the authenticated decision.
	Confirmed bool

	// Nonce is the challenge the decision answered.
	Nonce attest.Nonce

	// Evidence is the full marshalled attest.Evidence (quote mode).
	// Empty for HMAC-mode confirmations, which are recorded but only
	// provider-verifiable (symmetric key).
	Evidence []byte

	// PrevChain is the chain value before this entry.
	PrevChain cryptoutil.Digest

	// Chain is SHA1(PrevChain ‖ body) — the tamper-evidence link.
	Chain cryptoutil.Digest
}

// body serializes the hashed portion of the entry.
func (e *AuditEntry) body() []byte {
	b := cryptoutil.NewBuffer(128 + len(e.Evidence))
	b.PutUint64(e.Seq)
	b.PutUint8(uint8(e.Kind))
	b.PutString(e.Note)
	b.PutUint64(uint64(e.At.UnixNano()))
	b.PutString(e.TxID)
	b.PutDigest(e.TxDigest)
	b.PutBool(e.Confirmed)
	b.PutRaw(e.Nonce[:])
	b.PutBytes(e.Evidence)
	return b.Bytes()
}

// computeChain links the entry onto prev.
func (e *AuditEntry) computeChain(prev cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.SHA1Concat(prev[:], e.body())
}

// Marshal produces the full wire encoding of an entry, chain fields
// included — the form persisted in snapshots and WAL records.
func (e *AuditEntry) Marshal() []byte {
	b := cryptoutil.NewBuffer(168 + len(e.Note) + len(e.TxID) + len(e.Evidence))
	b.PutRaw(e.body())
	b.PutDigest(e.PrevChain)
	b.PutDigest(e.Chain)
	return b.Bytes()
}

// readAuditEntry decodes an entry from an open reader.
func readAuditEntry(r *cryptoutil.Reader) AuditEntry {
	var e AuditEntry
	e.Seq = r.Uint64()
	e.Kind = AuditKind(r.Uint8())
	e.Note = r.String()
	e.At = time.Unix(0, int64(r.Uint64()))
	e.TxID = r.String()
	e.TxDigest = r.Digest()
	e.Confirmed = r.Bool()
	copy(e.Nonce[:], r.Raw(attest.NonceSize))
	e.Evidence = r.Bytes()
	e.PrevChain = r.Digest()
	e.Chain = r.Digest()
	return e
}

// UnmarshalAuditEntry decodes one marshalled entry. The chain fields
// are decoded but not verified here; AuditLog.Restore (or
// VerifyAuditChain) checks them in sequence context.
func UnmarshalAuditEntry(data []byte) (*AuditEntry, error) {
	r := cryptoutil.NewReader(data)
	e := readAuditEntry(r)
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("core: unmarshal audit entry: %w", err)
	}
	return &e, nil
}

// AuditLog is an append-only, hash-chained record of verified
// confirmations. Safe for concurrent use.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
	head    cryptoutil.Digest
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog {
	return &AuditLog{}
}

// Append records a confirmation. The caller supplies everything except
// the chain fields.
func (l *AuditLog) Append(entry AuditEntry) AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	entry.Seq = uint64(len(l.entries))
	entry.PrevChain = l.head
	entry.Chain = entry.computeChain(l.head)
	l.entries = append(l.entries, entry)
	l.head = entry.Chain
	return entry
}

// Restore appends a recovered entry, verifying it links onto the
// current head — so a snapshot-load plus WAL replay re-verifies the
// whole hash chain as a side effect of rebuilding it. An entry that
// does not link is evidence of tampering or storage corruption, never
// silently accepted.
func (l *AuditLog) Restore(e AuditEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Seq != uint64(len(l.entries)) {
		return fmt.Errorf("%w: restored entry at position %d claims seq %d",
			ErrChainBroken, len(l.entries), e.Seq)
	}
	if e.PrevChain != l.head {
		return fmt.Errorf("%w: restored entry %d prev link", ErrChainBroken, e.Seq)
	}
	if e.computeChain(l.head) != e.Chain {
		return fmt.Errorf("%w: restored entry %d chain value", ErrChainBroken, e.Seq)
	}
	l.entries = append(l.entries, e)
	l.head = e.Chain
	return nil
}

// Head returns the current chain head (a compact commitment to the
// entire history, suitable for periodic external anchoring).
func (l *AuditLog) Head() cryptoutil.Digest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	return l.entriesSince(0)
}

// entriesSince returns a copy of the entries after the first i — what a
// rotation appends to the history log.
func (l *AuditLog) entriesSince(i int) []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEntry, len(l.entries)-i)
	copy(out, l.entries[i:])
	return out
}

// Audit errors.
var (
	// ErrChainBroken is returned when the hash chain does not verify.
	ErrChainBroken = errors.New("core: audit chain broken")

	// ErrAuditEvidence is returned when an entry's evidence fails
	// re-verification.
	ErrAuditEvidence = errors.New("core: audit entry evidence invalid")
)

// AuditReport summarizes an auditor replay.
type AuditReport struct {
	// Entries is the number of records checked.
	Entries int

	// Reverified counts entries whose attestation evidence was
	// re-verified end to end.
	Reverified int

	// HMACOnly counts entries recorded from HMAC-mode confirmations
	// (chain-protected but not independently re-verifiable).
	HMACOnly int

	// Downgrades counts degradation records (AuditDowngrade).
	Downgrades int

	// FallbackTxs counts transactions executed on the CAPTCHA-gated
	// path (AuditFallbackTx) — chain-protected, never attested.
	FallbackTxs int

	// SessionOpens counts attested session establishments whose quote
	// evidence re-verified end to end (also counted in Reverified).
	SessionOpens int

	// SessionConfirms counts transactions confirmed under an attested
	// session — anchored by their session's opening entry rather than
	// per-entry evidence.
	SessionConfirms int

	// Head is the verified chain head.
	Head cryptoutil.Digest
}

// VerifyAuditChain checks the structural hash-chain invariants of a log
// (sequence numbers, prev links, chain values) without re-verifying
// evidence — the cheap end-to-end check recovery runs on every restart.
// ReplayAudit is the full auditor pass on top of this.
func VerifyAuditChain(entries []AuditEntry) error {
	var prev cryptoutil.Digest
	for i := range entries {
		e := &entries[i]
		if e.Seq != uint64(i) {
			return fmt.Errorf("%w: entry %d claims seq %d", ErrChainBroken, i, e.Seq)
		}
		if e.PrevChain != prev {
			return fmt.Errorf("%w: entry %d prev link", ErrChainBroken, i)
		}
		if e.computeChain(prev) != e.Chain {
			return fmt.Errorf("%w: entry %d chain value", ErrChainBroken, i)
		}
		prev = e.Chain
	}
	return nil
}

// ReplayAudit is the independent auditor: given the provider's log and
// the verification policy (CA key + approved PALs), it checks the hash
// chain link by link and re-verifies every quote-mode entry's evidence
// against its recorded nonce, transaction digest, and decision.
func ReplayAudit(entries []AuditEntry, verifier *attest.Verifier) (*AuditReport, error) {
	report := &AuditReport{}
	var prev cryptoutil.Digest
	for i := range entries {
		e := &entries[i]
		if e.Seq != uint64(i) {
			return nil, fmt.Errorf("%w: entry %d claims seq %d", ErrChainBroken, i, e.Seq)
		}
		if e.PrevChain != prev {
			return nil, fmt.Errorf("%w: entry %d prev link", ErrChainBroken, i)
		}
		if e.computeChain(prev) != e.Chain {
			return nil, fmt.Errorf("%w: entry %d chain value", ErrChainBroken, i)
		}
		prev = e.Chain
		report.Entries++

		switch e.Kind {
		case AuditDowngrade:
			// Degradation records carry no evidence by construction;
			// their value is the tamper-evident fact that the downgrade
			// happened, when, and why.
			report.Downgrades++
			continue
		case AuditFallbackTx:
			report.FallbackTxs++
			continue
		case AuditSessionOpen:
			// The binding the PAL extended is recorded in TxDigest, so
			// the open re-verifies without reconstructing it from parts.
			ev, err := attest.UnmarshalEvidence(e.Evidence)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %v", ErrAuditEvidence, i, err)
			}
			if _, err := verifier.Verify(ev, attest.Expectations{
				Nonce:         e.Nonce,
				ExpectedPCR23: ExpectedAppPCR(e.TxDigest),
			}); err != nil {
				return nil, fmt.Errorf("%w: entry %d: %v", ErrAuditEvidence, i, err)
			}
			report.SessionOpens++
			report.Reverified++
			continue
		case AuditSessionConfirm:
			report.SessionConfirms++
			continue
		}
		if len(e.Evidence) == 0 {
			report.HMACOnly++
			continue
		}
		ev, err := attest.UnmarshalEvidence(e.Evidence)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrAuditEvidence, i, err)
		}
		binding := ConfirmationBinding(e.Nonce, e.TxDigest, e.Confirmed)
		if _, err := verifier.Verify(ev, attest.Expectations{
			Nonce:         e.Nonce,
			ExpectedPCR23: ExpectedAppPCR(binding),
		}); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrAuditEvidence, i, err)
		}
		report.Reverified++
	}
	report.Head = prev
	return report, nil
}
