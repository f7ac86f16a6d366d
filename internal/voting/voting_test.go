package voting

import (
	"bytes"
	"testing"

	"immune/internal/ids"
	"immune/internal/sec"
)

// fixedDegree returns a degree function backed by a map.
func fixedDegree(m map[ids.ObjectGroupID]int) func(ids.ObjectGroupID) int {
	return func(g ids.ObjectGroupID) int { return m[g] }
}

var (
	clientGroup = ids.ObjectGroupID(2)
	serverGroup = ids.ObjectGroupID(5)

	opA = ids.OperationID{ClientGroup: clientGroup, Seq: 1}

	c1 = ids.ReplicaID{Group: clientGroup, Processor: 1}
	c2 = ids.ReplicaID{Group: clientGroup, Processor: 2}
	c3 = ids.ReplicaID{Group: clientGroup, Processor: 3}

	s1 = ids.ReplicaID{Group: serverGroup, Processor: 1}
	s2 = ids.ReplicaID{Group: serverGroup, Processor: 2}
	s3 = ids.ReplicaID{Group: serverGroup, Processor: 3}
)

func TestInputMajorityVoting(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	payload := []byte("invocation")

	out := v.Offer(opA, c1, payload)
	if out.Decided || out.Duplicate {
		t.Fatalf("decided on one copy of three: %+v", out)
	}
	out = v.Offer(opA, c2, payload)
	if !out.Decided {
		t.Fatal("majority of 3 is 2; not decided")
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatalf("decided payload %q", out.Payload)
	}
	if len(out.Deviants) != 0 {
		t.Fatalf("deviants on unanimous prefix: %v", out.Deviants)
	}
	// Third copy is a duplicate of the decided value.
	out = v.Offer(opA, c3, payload)
	if !out.Duplicate || out.Decided {
		t.Fatalf("post-decision copy: %+v", out)
	}
}

func TestValueFaultDetected(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	good := []byte("balance=100")
	bad := []byte("balance=999999")

	v.Offer(opA, c1, bad) // corrupted replica races ahead
	v.Offer(opA, c2, good)
	out := v.Offer(opA, c3, good)
	if !out.Decided || !bytes.Equal(out.Payload, good) {
		t.Fatalf("majority not decided for good value: %+v", out)
	}
	if len(out.Deviants) != 1 || out.Deviants[0] != c1 {
		t.Fatalf("deviants = %v, want [c1]", out.Deviants)
	}
}

func TestMutantCopiesFromOneReplica(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	v.Offer(opA, c1, []byte("first"))
	out := v.Offer(opA, c1, []byte("second"))
	if out.Deviant == nil || *out.Deviant != c1 {
		t.Fatalf("mutant copies not attributed: %+v", out)
	}
	if !out.Duplicate {
		t.Fatal("second value from same replica must not count")
	}
	// The mutant value must not have entered the tally: c1's original
	// copy plus c2's matching copy form the majority of three.
	out = v.Offer(opA, c2, []byte("first"))
	if !out.Decided || !bytes.Equal(out.Payload, []byte("first")) {
		t.Fatalf("majority not reached after mutant suppression: %+v", out)
	}
}

func TestExactDuplicateSuppressed(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	v.Offer(opA, c1, []byte("x"))
	out := v.Offer(opA, c1, []byte("x"))
	if !out.Duplicate || out.Deviant != nil {
		t.Fatalf("exact duplicate: %+v", out)
	}
}

func TestResponseVotingUsesServerDegree(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3, serverGroup: 5}))
	payload := []byte("reply")
	// Copies come from server replicas; degree 5 needs 3.
	v.Offer(opA, s1, payload)
	out := v.Offer(opA, s2, payload)
	if out.Decided {
		t.Fatal("decided with 2 of 5")
	}
	out = v.Offer(opA, s3, payload)
	if !out.Decided {
		t.Fatal("3 of 5 should decide")
	}
}

func TestUnknownDegreeDefersDecision(t *testing.T) {
	degrees := map[ids.ObjectGroupID]int{}
	v := NewVoter(fixedDegree(degrees))
	out := v.Offer(opA, c1, []byte("x"))
	if out.Decided {
		t.Fatal("decided with unknown degree")
	}
	out = v.Offer(opA, c2, []byte("x"))
	if out.Decided {
		t.Fatal("still unknown degree")
	}
	// Degree becomes known (join processed); recheck decides.
	degrees[clientGroup] = 3
	dec := v.Recheck()
	if len(dec) != 1 || !bytes.Equal(dec[0].Payload, []byte("x")) {
		t.Fatalf("recheck = %+v", dec)
	}
}

func TestRecheckAfterDegreeDrop(t *testing.T) {
	degrees := map[ids.ObjectGroupID]int{clientGroup: 5}
	v := NewVoter(fixedDegree(degrees))
	v.Offer(opA, c1, []byte("x"))
	out := v.Offer(opA, c2, []byte("x"))
	if out.Decided {
		t.Fatal("2 of 5 decided early")
	}
	// Two replicas crash; degree drops to 3 and 2 copies now decide.
	degrees[clientGroup] = 3
	dec := v.Recheck()
	if len(dec) != 1 {
		t.Fatalf("recheck after degree drop: %+v", dec)
	}
	// Decisions from Recheck register for duplicate suppression.
	if out := v.Offer(opA, c3, []byte("x")); !out.Duplicate {
		t.Fatalf("post-recheck copy not suppressed: %+v", out)
	}
}

func TestDropSender(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	v.Offer(opA, c1, []byte("evil"))
	v.DropSender(c1)
	// After dropping the faulty copy, two good copies decide cleanly
	// with no deviants.
	v.Offer(opA, c2, []byte("good"))
	out := v.Offer(opA, c3, []byte("good"))
	if !out.Decided || len(out.Deviants) != 0 {
		t.Fatalf("after DropSender: %+v", out)
	}
}

func TestIndependentOperations(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	opB := ids.OperationID{ClientGroup: clientGroup, Seq: 2}
	v.Offer(opA, c1, []byte("a"))
	v.Offer(opB, c1, []byte("b"))
	if v.Pending() != 2 {
		t.Fatalf("pending = %d", v.Pending())
	}
	outA := v.Offer(opA, c2, []byte("a"))
	if !outA.Decided || !bytes.Equal(outA.Payload, []byte("a")) {
		t.Fatalf("opA decision: %+v", outA)
	}
	outB := v.Offer(opB, c2, []byte("b"))
	if !outB.Decided || !bytes.Equal(outB.Payload, []byte("b")) {
		t.Fatalf("opB decision: %+v", outB)
	}
}

func TestSingletonGroupDecidesImmediately(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 1}))
	out := v.Offer(opA, c1, []byte("solo"))
	if !out.Decided {
		t.Fatal("degree-1 group must decide on first copy")
	}
}

// TestDeterminism feeds the same copies in the same order to two voters
// and requires identical outcomes — the property that lets every RM reach
// the same decision (paper §6.2).
func TestDeterminism(t *testing.T) {
	mk := func() *Voter {
		return NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	}
	script := []struct {
		sender  ids.ReplicaID
		payload string
	}{
		{c1, "v1"}, {c2, "v2"}, {c3, "v2"}, {c1, "v1"},
	}
	a, b := mk(), mk()
	for _, step := range script {
		oa := a.Offer(opA, step.sender, []byte(step.payload))
		ob := b.Offer(opA, step.sender, []byte(step.payload))
		if oa.Decided != ob.Decided || oa.Duplicate != ob.Duplicate ||
			!bytes.Equal(oa.Payload, ob.Payload) || len(oa.Deviants) != len(ob.Deviants) {
			t.Fatalf("voters diverged on %+v: %+v vs %+v", step, oa, ob)
		}
	}
}

func TestTieNeverDecidesWrong(t *testing.T) {
	// Degree 4, majority 3: a 2-2 split must not decide.
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 4}))
	c4 := ids.ReplicaID{Group: clientGroup, Processor: 4}
	v.Offer(opA, c1, []byte("x"))
	v.Offer(opA, c2, []byte("x"))
	v.Offer(opA, c3, []byte("y"))
	out := v.Offer(opA, c4, []byte("y"))
	if out.Decided {
		t.Fatal("tie decided")
	}
	if v.Pending() != 1 {
		t.Fatal("op lost")
	}
}

func TestDecidedPayloadIsCopied(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 1}))
	buf := []byte("mutable")
	out := v.Offer(opA, c1, buf)
	buf[0] = 'X'
	if !bytes.Equal(out.Payload, []byte("mutable")) {
		t.Fatal("decided payload aliases caller buffer")
	}
}

// decideRange decides operations from..to of clientGroup with two equal
// copies each.
func decideRange(t *testing.T, v *Voter, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		op := ids.OperationID{ClientGroup: clientGroup, Seq: seq}
		v.Offer(op, c1, []byte("x"))
		if out := v.Offer(op, c2, []byte("x")); !out.Decided {
			t.Fatalf("op %d undecided after a majority", seq)
		}
	}
}

// TestBelowWindowCopyIsDuplicate: once a client group's decided window has
// moved past an operation, late copies of it must stay duplicates — a
// fresh vote would deliver (and execute) the operation a second time.
func TestBelowWindowCopyIsDuplicate(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	decideRange(t, v, 1, decidedWindow+10)
	for _, sender := range []ids.ReplicaID{c1, c2, c3} {
		if out := v.Offer(opA, sender, []byte("x")); out.Decided || !out.Duplicate {
			t.Fatalf("late copy of forgotten op 1 from %s: %+v", sender, out)
		}
	}
	if v.Pending() != 0 {
		t.Fatalf("late copies opened %d fresh votes", v.Pending())
	}
	// Another client group's window is its own.
	other := ids.OperationID{ClientGroup: serverGroup, Seq: 1}
	v = NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3, serverGroup: 1}))
	decideRange(t, v, 1, decidedWindow+10)
	if out := v.Offer(other, s1, []byte("y")); !out.Decided {
		t.Fatalf("fresh client group caught by another group's window: %+v", out)
	}
}

// TestDecidedWindowSlides: the decided set holds one window per client
// group however many operations pass, and a jump in sequence numbers is
// absorbed without walking the gap.
func TestDecidedWindowSlides(t *testing.T) {
	v := NewVoter(fixedDegree(map[ids.ObjectGroupID]int{clientGroup: 3}))
	decideRange(t, v, 1, 3*decidedWindow)
	if n := len(v.decided); n != decidedWindow+1 {
		t.Fatalf("decided set holds %d entries, want %d", n, decidedWindow+1)
	}
	far := uint64(1) << 62
	decideRange(t, v, far, far)
	if n := len(v.decided); n != 1 {
		t.Fatalf("decided set holds %d entries after a jump, want 1", n)
	}
	// An old vote decided late (a Recheck after a degree drop) sits under
	// the mark already and must not be recorded for ever.
	decideRange(t, v, far+1, far+decidedWindow)
	stale := ids.OperationID{ClientGroup: clientGroup, Seq: far - 1}
	v.remember(stale, sec.Digest(nil))
	if _, kept := v.decided[stale]; kept {
		t.Fatal("a decision below the low-water mark was recorded")
	}
}

// TestRecheckHandsBackDest: the target group offered with a vote's first
// copy comes back when Recheck decides it.
func TestRecheckHandsBackDest(t *testing.T) {
	deg := map[ids.ObjectGroupID]int{clientGroup: 3}
	v := NewVoter(fixedDegree(deg))
	p := []byte("inv")
	v.OfferTo(serverGroup, opA, c1, p, sec.Digest(p))
	deg[clientGroup] = 1
	decs := v.Recheck()
	if len(decs) != 1 || decs[0].Dest != serverGroup || decs[0].Op != opA {
		t.Fatalf("recheck decisions %+v", decs)
	}
}
