// Parallel crypto helpers: the token receive path verifies batches of
// signatures (a drained burst of signed tokens) across a bounded worker
// pool. Fan-out is capped so signed traffic cannot monopolize every core,
// and results are written by index so their order is deterministic
// regardless of goroutine scheduling.

package sec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"immune/internal/ids"
)

// TokenVerification is one signed-token check in a batch: the claimed
// signer, the signed bytes, and the signature to verify.
type TokenVerification struct {
	Sender ids.ProcessorID
	Signed []byte
	Sig    []byte
}

// maxVerifyWorkers bounds the signature-verification fan-out.
const maxVerifyWorkers = 8

// VerifyTokenBatch verifies every item and returns the results in item
// order. Each verification honors WorkFactor exactly as VerifyToken does;
// items fan out across at most maxVerifyWorkers goroutines. Below
// LevelSignatures every item is accepted, matching VerifyToken.
func (s *Suite) VerifyTokenBatch(items []TokenVerification) []bool {
	out := make([]bool, len(items))
	if s.Level < LevelSignatures {
		for i := range out {
			out[i] = true
		}
		return out
	}
	parallelEach(len(items), func(i int) {
		out[i] = s.VerifyToken(items[i].Sender, items[i].Signed, items[i].Sig)
	})
	return out
}

// parallelEach runs fn(i) for every i in [0, n) across a bounded worker
// pool. For n < 2 (or a single-core GOMAXPROCS) it degenerates to a plain
// loop, so the common single-token case never pays goroutine overhead.
func parallelEach(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), maxVerifyWorkers, n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
