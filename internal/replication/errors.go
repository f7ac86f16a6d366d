package replication

import (
	"errors"

	"immune/internal/ring"
)

// Sentinel errors for the client invocation path. They are wrapped with
// call context by Handle.Invoke/InvokeDeadline; match with errors.Is.
var (
	// ErrTimeout: the deadline expired while the target group appears
	// healthy — the invocation may still decide later (retry-safe: the
	// voters discard re-delivered copies of a decided operation id).
	ErrTimeout = errors.New("invocation timed out")
	// ErrNotActive: the local client replica has not been admitted to its
	// group yet (join pending), or was deactivated by exclusion.
	ErrNotActive = errors.New("replica not active")
	// ErrQuorumLost: the target group has no live replicas, or this
	// processor was excluded from the membership — no vote can decide.
	ErrQuorumLost = errors.New("quorum lost")
	// ErrGroupDegraded: the target group's live degree has fallen below
	// ⌈(r+1)/2⌉ of its configured degree (§3.1 hard alarm); a majority of
	// the original degree can no longer form.
	ErrGroupDegraded = errors.New("group degraded below majority")
	// ErrOverloaded: an admission bound shed the invocation — the
	// client group's in-flight cap, or the ring's bounded submit queue
	// further down the stack. The call never entered the total order
	// (no copy was multicast by this replica), so retrying after
	// backing off is safe and is the intended reaction. The sentinel is
	// the ring's, so errors.Is matches wherever in the stack the
	// overload was detected.
	ErrOverloaded = ring.ErrOverloaded
)
