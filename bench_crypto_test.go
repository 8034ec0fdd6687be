// Crypto-profile benchmarks (DESIGN.md §15, EXPERIMENTS.md F16): the
// provider-side cost of one confirmed transaction under each pluggable
// quote-signature scheme, plus the attested-session HMAC path that
// amortizes the quote away entirely. Frames are pre-minted outside the
// timed window, so each iteration measures exactly what the provider
// pays: decode, evidence verification (or MAC check), and the ledger
// transition — the same hot path cmd/tpbench's F16 normalizes per core.
package unitp_test

import (
	"fmt"
	"testing"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/workload"
)

// benchCryptoFixture is one certified synthetic platform plus a
// memory-only provider sharing its crypto profile — no store, so the
// numbers isolate the cryptography from fsync costs.
type benchCryptoFixture struct {
	provider *core.Provider
	client   *workload.SyntheticClient
}

func newBenchCryptoFixture(b *testing.B, schemeName string) *benchCryptoFixture {
	b.Helper()
	scheme, err := cryptoutil.SchemeByName(schemeName)
	if err != nil {
		b.Fatal(err)
	}
	caKey, err := cryptoutil.GenerateRSAKey(sim.NewRand(0xC0), cryptoutil.DefaultRSABits)
	if err != nil {
		b.Fatal(err)
	}
	ca := attest.NewPrivacyCA("bench-crypto-ca", caKey, nil, sim.NewRand(0xC1))
	palMeas := cryptoutil.SHA1([]byte("bench-crypto-confirm-pal"))
	client, err := workload.NewSyntheticClientScheme(ca, "bench-crypto-platform", palMeas,
		sim.NewRand(0xC2), cryptoutil.DefaultRSABits, scheme)
	if err != nil {
		b.Fatal(err)
	}
	provKey, err := cryptoutil.GenerateRSAKey(sim.NewRand(0xC3), cryptoutil.DefaultRSABits)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewProvider(core.ProviderConfig{
		Name:   "bench-crypto",
		CAPub:  ca.PublicKey(),
		Key:    provKey,
		Clock:  sim.WallClock{},
		Random: sim.NewRand(0xC4),
		Scheme: scheme,
		// The session benchmark drains b.N confirmations through one
		// session; neither budget may force a re-quote mid-run.
		SessionMaxTx:  1 << 30,
		SessionMaxAge: 0,
	})
	p.Verifier().ApprovePAL(core.ConfirmPALName, palMeas)
	p.Verifier().ApprovePAL(core.SessionOpenPALNameFor(p.PublicKeyDER()),
		cryptoutil.SHA1(core.SessionOpenPALImage(p.PublicKeyDER())))
	for acct, cents := range map[string]int64{"alice": 1 << 50, "bob": 0} {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			b.Fatal(err)
		}
	}
	return &benchCryptoFixture{provider: p, client: client}
}

// roundTrip pushes one encoded message through the provider and decodes
// the answer.
func (f *benchCryptoFixture) roundTrip(b *testing.B, msg any) any {
	b.Helper()
	req, err := core.EncodeMessage(msg)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := f.provider.Handle(req)
	if err != nil {
		b.Fatal(err)
	}
	out, err := core.DecodeMessage(resp)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// mintQuoteConfirms prepares n ready-to-drain ConfirmTx frames with
// genuine evidence under the fixture's scheme.
func (f *benchCryptoFixture) mintQuoteConfirms(b *testing.B, n int) [][]byte {
	b.Helper()
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		tx := &core.Transaction{
			ID: fmt.Sprintf("bench-%d", i), From: "alice", To: "bob",
			AmountCents: 1, Currency: "EUR",
		}
		ch, ok := f.roundTrip(b, &core.SubmitTx{Tx: tx}).(*core.Challenge)
		if !ok {
			b.Fatalf("submit %d: no challenge", i)
		}
		evidence, err := f.client.ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := core.EncodeMessage(&core.ConfirmTx{
			Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// drainAccepted pushes one frame through Handle and fails on anything
// but an accepted outcome.
func (f *benchCryptoFixture) drainAccepted(b *testing.B, frame []byte) {
	resp, err := f.provider.Handle(frame)
	if err != nil {
		b.Fatal(err)
	}
	msg, err := core.DecodeMessage(resp)
	if err != nil {
		b.Fatal(err)
	}
	if out, ok := msg.(*core.Outcome); !ok || !out.Accepted {
		b.Fatalf("confirm not accepted: %+v", msg)
	}
}

// benchConfirmQuote measures one full quote-verified confirmation per
// iteration under the named scheme.
func benchConfirmQuote(b *testing.B, schemeName string) {
	f := newBenchCryptoFixture(b, schemeName)
	frames := f.mintQuoteConfirms(b, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.drainAccepted(b, frames[i])
	}
}

func BenchmarkConfirmRSA(b *testing.B) { benchConfirmQuote(b, "rsa") }

func BenchmarkConfirmEd25519(b *testing.B) { benchConfirmQuote(b, "ed25519") }

// BenchmarkConfirmSessionHMAC measures the re-confirmation fast path:
// one attested session opened outside the timed window, then each
// iteration is an HMAC-authenticated ConfirmTxSession — no quote, no
// signature, just the MAC plus the ledger transition.
func BenchmarkConfirmSessionHMAC(b *testing.B) {
	f := newBenchCryptoFixture(b, "rsa")
	const sessionID = 0xBE7C
	ch, ok := f.roundTrip(b, &core.SessionOpen{
		PlatformID: "bench-crypto-platform", Account: "alice",
	}).(*core.SessionChallenge)
	if !ok {
		b.Fatal("session open: no challenge")
	}
	sess, evidence, err := f.client.OpenSessionEvidence(ch.Nonce, "alice", sessionID, ch.ProviderPubDER, ch.KexPub)
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := f.roundTrip(b, &core.SessionProve{
		Nonce: ch.Nonce, PlatformID: "bench-crypto-platform", Account: "alice",
		SessionID: sessionID, EncKey: sess.EncKey, Evidence: evidence,
	}).(*core.SessionGrant); !ok {
		b.Fatal("session prove: no grant")
	}

	frames := make([][]byte, 0, b.N)
	for i := 0; i < b.N; i++ {
		tx := &core.Transaction{
			ID: fmt.Sprintf("bench-sess-%d", i), From: "alice", To: "bob",
			AmountCents: 1, Currency: "EUR",
		}
		tch, ok := f.roundTrip(b, &core.SubmitTx{Tx: tx}).(*core.Challenge)
		if !ok {
			b.Fatalf("submit %d: no challenge", i)
		}
		counter, mac := sess.ConfirmMAC(tch.Nonce, tch.Tx.Digest(), true)
		frame, err := core.EncodeMessage(&core.ConfirmTxSession{
			Nonce: tch.Nonce, Confirmed: true,
			SessionID: sessionID, Counter: counter, MAC: mac,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	// Counters must arrive strictly increasing: the drain is serial and
	// in mint order by construction.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.drainAccepted(b, frames[i])
	}
}
