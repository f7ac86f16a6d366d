package ring

import (
	"immune/internal/ids"
	"immune/internal/sec"
)

// verifyKey identifies one (claimed sender, signed bytes, signature)
// triple by the sender and the digest of the raw token, which encodes the
// other two injectively (a decoded token has no trailing bytes), so the
// cache holds fixed-size entries. A forged or mutated token necessarily
// changes the raw bytes, so a cached verdict can never be transferred to
// different bytes: the cache memoizes RSA results, it never weakens them.
type verifyKey struct {
	sender ids.ProcessorID
	raw    [sec.DigestSize]byte
}

// verifyCacheCap bounds the cache. A ring rotation keeps at most a few
// live tokens in flight; the cap only matters under a flood of distinct
// forgeries, where the cache clears rather than growing without bound.
const verifyCacheCap = 1024

// verifyCache memoizes signature-verification verdicts so each distinct
// token is RSA-verified at most once per processor — retransmitted tokens,
// mutant-token duplicates, and preverified batches all hit the cache.
// Negative verdicts are cached too: a replayed forgery costs one digest,
// not one RSA exponentiation. Single-goroutine use (the ring event
// goroutine), like the rest of the protocol state.
type verifyCache struct {
	m map[verifyKey]bool
}

func newVerifyCache() *verifyCache {
	return &verifyCache{m: make(map[verifyKey]bool)}
}

// lookup returns the cached verdict for k, if any.
func (c *verifyCache) lookup(k verifyKey) (verdict, ok bool) {
	verdict, ok = c.m[k]
	return
}

// store records a verdict, clearing the cache first when it is full. The
// clear-all policy is deliberate: entries are cheap to recompute (one RSA
// verify), and it keeps the hot path free of LRU bookkeeping.
func (c *verifyCache) store(k verifyKey, v bool) {
	if len(c.m) >= verifyCacheCap {
		clear(c.m)
	}
	c.m[k] = v
}
