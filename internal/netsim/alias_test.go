package netsim

import (
	"bytes"
	"testing"
	"time"

	"immune/internal/ids"
)

// mutatingPlan simulates a fault plan that scribbles on the payload it is
// shown (e.g. a targeted-corruption plan implemented by mutation rather
// than via the Corrupt verdict). The network must isolate the sender's
// buffer and every other receiver from such mutation.
type mutatingPlan struct {
	victim ids.ProcessorID
}

func (p mutatingPlan) Judge(f Frame, receiver ids.ProcessorID) (Verdict, time.Duration) {
	if receiver == p.victim && len(f.Payload) > 0 {
		f.Payload[0] ^= 0xff
	}
	return Deliver, 0
}

// TestJudgeMutationDoesNotLeakAcrossReceivers is the regression test for
// the shared-backing-array audit: before the copy-before-Judge fix, the
// fault plan was handed the original frame, so a mutating plan corrupted
// the sender's retained buffer and the copies of every receiver judged
// afterwards.
func TestJudgeMutationDoesNotLeakAcrossReceivers(t *testing.T) {
	// The victim receiver is judged for every broadcast; with 3 receivers
	// at least one is judged after it regardless of map iteration order.
	n := New(Config{Plan: mutatingPlan{victim: 2}})
	defer n.Close()
	sender, _ := n.Attach(1)
	eps := []*Endpoint{}
	for _, id := range []ids.ProcessorID{2, 3, 4} {
		ep, err := n.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}

	orig := []byte("total-order payload")
	payload := append([]byte(nil), orig...)
	sender.Multicast(payload)

	if !bytes.Equal(payload, orig) {
		t.Fatalf("sender's buffer mutated by fault plan: %q", payload)
	}
	for _, ep := range eps {
		f, ok := ep.TryRecv()
		if !ok {
			t.Fatalf("receiver %v got no frame", ep.ID())
		}
		if ep.ID() == 2 {
			if bytes.Equal(f.Payload, orig) {
				t.Fatalf("victim receiver should see the mutated payload")
			}
			continue
		}
		if !bytes.Equal(f.Payload, orig) {
			t.Fatalf("receiver %v saw another receiver's mutation: %q", ep.ID(), f.Payload)
		}
	}
}

// dupFirstPlan duplicates the first frame it judges.
type dupFirstPlan struct{ judged bool }

func (p *dupFirstPlan) Judge(Frame, ids.ProcessorID) (Verdict, time.Duration) {
	if !p.judged {
		p.judged = true
		return Duplicate, 0
	}
	return Deliver, 0
}

// TestDuplicateCopiesDoNotAlias checks that the two delivered copies of a
// Duplicate verdict have independent backing arrays: mutating one alias
// must not show through the other (PR 2's zero-copy decoders alias
// delivered payloads directly).
func TestDuplicateCopiesDoNotAlias(t *testing.T) {
	n := New(counted(Config{Plan: &dupFirstPlan{}}))
	defer n.Close()
	sender, _ := n.Attach(1)
	recv, _ := n.Attach(2)

	orig := []byte("duplicated payload")
	sender.Send(2, append([]byte(nil), orig...))

	first, ok := recv.TryRecv()
	if !ok {
		t.Fatal("first copy missing")
	}
	second, ok := recv.TryRecv()
	if !ok {
		t.Fatal("second copy missing")
	}
	if !bytes.Equal(first.Payload, orig) || !bytes.Equal(second.Payload, orig) {
		t.Fatalf("copies differ from original: %q / %q", first.Payload, second.Payload)
	}
	first.Payload[0] ^= 0xff
	if !bytes.Equal(second.Payload, orig) {
		t.Fatalf("mutating the first copy leaked into the second: %q", second.Payload)
	}
	if s := n.cfg.Metrics; s.Duplicated.Load() != 1 || s.Delivered.Load() != 2 {
		t.Fatalf("duplicated %d delivered %d, want 1 and 2", s.Duplicated.Load(), s.Delivered.Load())
	}
}

// TestSenderBufferIsolatedFromReceiver checks the original trust boundary
// still holds after the copy-before-Judge change: a receiver mutating its
// delivered payload must not affect the sender's buffer.
func TestSenderBufferIsolatedFromReceiver(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	sender, _ := n.Attach(1)
	recv, _ := n.Attach(2)

	orig := []byte("sender keeps this for retransmission")
	payload := append([]byte(nil), orig...)
	sender.Send(2, payload)

	f, ok := recv.TryRecv()
	if !ok {
		t.Fatal("no frame delivered")
	}
	for i := range f.Payload {
		f.Payload[i] = 0
	}
	if !bytes.Equal(payload, orig) {
		t.Fatalf("receiver mutation reached the sender's buffer: %q", payload)
	}
}
