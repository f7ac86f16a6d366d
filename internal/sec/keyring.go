package sec

import (
	"fmt"
	"sync"

	"immune/internal/ids"
)

// KeyRing is a directory of processor public keys. The paper assumes "each
// processor is able to obtain the public keys of other processors to verify
// signed messages" (§7); the key ring models that out-of-band distribution.
// It is safe for concurrent use.
type KeyRing struct {
	mu   sync.RWMutex
	keys map[ids.ProcessorID]*PublicKey
}

// NewKeyRing returns an empty key ring.
func NewKeyRing() *KeyRing {
	return &KeyRing{keys: make(map[ids.ProcessorID]*PublicKey)}
}

// Register records the public key for a processor. Re-registering a
// processor replaces its key (used only in tests that model key compromise).
func (kr *KeyRing) Register(p ids.ProcessorID, key *PublicKey) {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	kr.keys[p] = key
}

// Lookup returns the public key for a processor, or an error if the
// processor is unknown.
func (kr *KeyRing) Lookup(p ids.ProcessorID) (*PublicKey, error) {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	key, ok := kr.keys[p]
	if !ok {
		return nil, fmt.Errorf("no public key registered for %s", p)
	}
	return key, nil
}

// Len returns the number of registered keys.
func (kr *KeyRing) Len() int {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	return len(kr.keys)
}

// Suite bundles one processor's cryptographic configuration: the security
// level in force, the processor's own keypair, and the directory of peer
// public keys. Protocol code takes a Suite and branches on Level, so the
// same token-ring implementation serves Figure 7 cases 2, 3 and 4.
type Suite struct {
	Level Level
	Self  ids.ProcessorID
	Key   *KeyPair // nil iff Level < LevelSignatures
	Ring  *KeyRing // nil iff Level < LevelSignatures
	// WorkFactor repeats each signing/verification computation to
	// emulate slower hardware. The paper measured on 167 MHz UltraSPARCs
	// where a 300-bit RSA signature cost milliseconds; on modern CPUs it
	// costs tens of microseconds, which erases the Figure 7 case-4 gap.
	// A WorkFactor of 10-15 restores the paper's roughly tenfold case-4
	// collapse (see EXPERIMENTS.md). Zero means 1.
	WorkFactor int
}

// NewSuite validates and constructs a Suite.
func NewSuite(level Level, self ids.ProcessorID, key *KeyPair, ring *KeyRing) (*Suite, error) {
	if level == LevelSignatures {
		if key == nil || ring == nil {
			return nil, fmt.Errorf("security level %s requires a keypair and key ring", level)
		}
	}
	return &Suite{Level: level, Self: self, Key: key, Ring: ring}, nil
}

// SecurityLevel returns the level in force. It exists so that protocol
// packages can depend on a narrow crypto interface (and tests can
// substitute counting or faulting stubs) instead of the concrete Suite.
func (s *Suite) SecurityLevel() Level { return s.Level }

// SignToken signs the digest of the given token bytes with this processor's
// private key. At levels below LevelSignatures it returns (nil, nil): tokens
// circulate unsigned.
func (s *Suite) SignToken(tokenBytes []byte) ([]byte, error) {
	if s.Level < LevelSignatures {
		return nil, nil
	}
	d := Digest(tokenBytes)
	sig, err := s.Key.Sign(d[:])
	if err != nil {
		return nil, fmt.Errorf("sign token: %w", err)
	}
	for i := 1; i < s.WorkFactor; i++ {
		if _, err := s.Key.Sign(d[:]); err != nil {
			return nil, fmt.Errorf("sign token: %w", err)
		}
	}
	return sig, nil
}

// Known reports whether the processor has a registered public key, i.e.
// belongs to the fixed processor universe the key distribution covers. At
// levels below LevelSignatures there is no key directory and every
// processor is accepted, matching those levels' weaker threat model.
func (s *Suite) Known(p ids.ProcessorID) bool {
	if s.Level < LevelSignatures || s.Ring == nil {
		return true
	}
	_, err := s.Ring.Lookup(p)
	return err == nil
}

// VerifyToken checks a token signature against the claimed sender's public
// key. At levels below LevelSignatures every token is accepted.
func (s *Suite) VerifyToken(sender ids.ProcessorID, tokenBytes, sig []byte) bool {
	if s.Level < LevelSignatures {
		return true
	}
	key, err := s.Ring.Lookup(sender)
	if err != nil {
		return false
	}
	d := Digest(tokenBytes)
	ok := key.Verify(d[:], sig)
	for i := 1; i < s.WorkFactor; i++ {
		key.Verify(d[:], sig)
	}
	return ok
}
