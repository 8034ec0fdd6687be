package cryptoutil

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
)

// Pluggable crypto backends. The attestation signature algorithm — what
// signs a quote and what an AIK certificate certifies — lives behind the
// narrow Scheme interface below (mirroring the CryptoProvider pattern of
// consensus clients: a handful of verbs, swappable backends). The
// paper-faithful profile is RSA-2048 with SHA-1 digests (TPM v1.2); an
// Ed25519 profile sits next to it. Everything above this file — the TPM quote code, the attestation
// verifier, the provider — dispatches through a Scheme and never names
// an algorithm.
//
// Wire compatibility: SchemeRSA is the zero value, and every RSA wire
// format (certificates, quotes, evidence) is byte-identical to the
// pre-scheme encoding. Non-RSA profiles use tagged encodings that the
// legacy parsers cannot produce, so mixed deployments fail loudly at
// decode or verify time rather than silently cross-verifying.

// SchemeID identifies a crypto profile on the wire and in handshakes.
type SchemeID uint8

// Crypto profiles.
const (
	// SchemeRSA is the paper-faithful TPM v1.2 profile: RSA-2048
	// PKCS#1 v1.5 signatures over SHA-1 digests. The zero value, so
	// legacy structs decode as RSA.
	SchemeRSA SchemeID = 0

	// SchemeEd25519 signs quotes with Ed25519 (RFC 8032).
	SchemeEd25519 SchemeID = 1
)

// String names the profile for flags, tables, and handshake errors.
func (id SchemeID) String() string {
	switch id {
	case SchemeRSA:
		return "rsa"
	case SchemeEd25519:
		return "ed25519"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(id))
	}
}

// ErrUnknownScheme is returned for unregistered scheme IDs or names.
var ErrUnknownScheme = errors.New("cryptoutil: unknown crypto scheme")

// ErrBadSignature is returned by Scheme.Verify for invalid signatures.
var ErrBadSignature = errors.New("cryptoutil: signature verification failed")

// Signer holds one attestation signing key under some scheme.
type Signer interface {
	// Scheme identifies the profile this key belongs to.
	Scheme() SchemeID

	// Public returns the scheme-specific public key encoding (PKCS#1
	// DER for RSA, 32 raw bytes for Ed25519).
	Public() []byte

	// Sign signs msg. The digest step (if any) is the scheme's
	// business: RSA hashes msg with SHA-1 first, Ed25519 signs msg
	// directly. random may be nil for deterministic schemes.
	Sign(random io.Reader, msg []byte) ([]byte, error)
}

// Scheme is the narrow swappable-crypto interface: generate a key,
// encode/verify signatures. Implementations must be safe for concurrent
// use.
type Scheme interface {
	// ID is the wire/handshake identifier.
	ID() SchemeID

	// Name is the flag-friendly profile name.
	Name() string

	// GenerateKey creates a signer from the given randomness source.
	GenerateKey(random io.Reader) (Signer, error)

	// Verify checks sig over msg under the scheme-encoded public key.
	// Returns nil on success, ErrBadSignature (possibly wrapped) on
	// failure.
	Verify(pub, msg, sig []byte) error

	// CheckPublicKey reports whether pub is a well-formed public key
	// under this scheme. Enrollment calls this so a client built for a
	// different profile is refused at certify time with a clear error,
	// instead of obtaining a certificate every later quote verification
	// rejects.
	CheckPublicKey(pub []byte) error
}

// --- RSA (paper-faithful TPM v1.2 profile) ---

type rsaScheme struct{ bits int }

type rsaSigner struct {
	key *rsa.PrivateKey
	der []byte
}

func (s *rsaSigner) Scheme() SchemeID { return SchemeRSA }
func (s *rsaSigner) Public() []byte   { return s.der }

func (s *rsaSigner) Sign(random io.Reader, msg []byte) ([]byte, error) {
	digest := SHA1(msg)
	sig, err := rsa.SignPKCS1v15(random, s.key, crypto.SHA1, digest[:])
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: rsa sign: %w", err)
	}
	return sig, nil
}

func (rsaScheme) ID() SchemeID { return SchemeRSA }
func (rsaScheme) Name() string { return "rsa" }

func (sch rsaScheme) GenerateKey(random io.Reader) (Signer, error) {
	bits := sch.bits
	if bits == 0 {
		bits = DefaultRSABits
	}
	key, err := GenerateRSAKey(random, bits)
	if err != nil {
		return nil, err
	}
	return NewRSASigner(key), nil
}

// NewRSASigner wraps an existing RSA key as a scheme signer (so pooled
// and pre-enrolled keys slot into the scheme interface).
func NewRSASigner(key *rsa.PrivateKey) Signer {
	return &rsaSigner{key: key, der: x509.MarshalPKCS1PublicKey(&key.PublicKey)}
}

func (rsaScheme) CheckPublicKey(pub []byte) error {
	if _, err := x509.ParsePKCS1PublicKey(pub); err != nil {
		return fmt.Errorf("cryptoutil: rsa: bad public key: %v", err)
	}
	return nil
}

func (rsaScheme) Verify(pub, msg, sig []byte) error {
	key, err := x509.ParsePKCS1PublicKey(pub)
	if err != nil {
		return fmt.Errorf("%w: bad RSA public key: %v", ErrBadSignature, err)
	}
	digest := SHA1(msg)
	if err := rsa.VerifyPKCS1v15(key, crypto.SHA1, digest[:], sig); err != nil {
		return ErrBadSignature
	}
	return nil
}

// --- Ed25519 ---

type ed25519Scheme struct{}

type ed25519Signer struct{ priv ed25519.PrivateKey }

func (s *ed25519Signer) Scheme() SchemeID { return SchemeEd25519 }
func (s *ed25519Signer) Public() []byte {
	return []byte(s.priv.Public().(ed25519.PublicKey))
}

func (s *ed25519Signer) Sign(_ io.Reader, msg []byte) ([]byte, error) {
	return ed25519.Sign(s.priv, msg), nil
}

func (ed25519Scheme) ID() SchemeID { return SchemeEd25519 }
func (ed25519Scheme) Name() string { return "ed25519" }

func (ed25519Scheme) GenerateKey(random io.Reader) (Signer, error) {
	_, priv, err := ed25519.GenerateKey(random)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: ed25519 keygen: %w", err)
	}
	return &ed25519Signer{priv: priv}, nil
}

func (sch ed25519Scheme) CheckPublicKey(pub []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("cryptoutil: %s: bad public key length %d (want %d; an RSA-profile client cannot enroll under an Ed25519 server)",
			sch.Name(), len(pub), ed25519.PublicKeySize)
	}
	return nil
}

func (ed25519Scheme) Verify(pub, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad ed25519 public key length %d", ErrBadSignature, len(pub))
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// --- Registry ---

var schemes = map[SchemeID]Scheme{
	SchemeRSA:     rsaScheme{},
	SchemeEd25519: ed25519Scheme{},
}

// SchemeByID resolves a profile by wire identifier.
func SchemeByID(id SchemeID) (Scheme, error) {
	s, ok := schemes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownScheme, uint8(id))
	}
	return s, nil
}

// SchemeByName resolves a profile by flag name (rsa, ed25519).
func SchemeByName(name string) (Scheme, error) {
	for _, s := range schemes {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
}

// SchemeNames lists the registered profile names (for flag help).
func SchemeNames() []string {
	return []string{"rsa", "ed25519"}
}
