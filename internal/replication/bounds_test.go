package replication

import (
	"reflect"
	"testing"

	"immune/internal/ids"
)

// opKeyedEntries sums the sizes of every operation-keyed map reachable
// from v through struct values (not pointers): on a Manager that is each
// record it keeps per operation itself — waiters, the decided-response
// cache, and whatever a later change adds.
func opKeyedEntries(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += opKeyedEntries(v.Field(i))
		}
	case reflect.Map:
		if v.Type().Key() == reflect.TypeOf(ids.OperationID{}) {
			n = v.Len()
		}
	}
	return n
}

// TestSettledCallsLeaveNoUndecidedWork: once replicated calls have
// settled, nothing a Manager keeps per undecided operation may remain —
// no pending vote, no waiter, no cached response nobody asked for, no
// other per-operation record — and what it keeps per decided operation is
// bounded by the number of calls. (The manager used to record each
// invocation's destination before offering the copy to V_I, so the copy
// arriving after the decision re-inserted what the decision had deleted:
// one entry leaked per call, on every hosting manager.)
func TestSettledCallsLeaveNoUndecidedWork(t *testing.T) {
	const calls = 200
	f := newFixture(t, 3)
	for k := 0; k < calls; k++ {
		f.invokeAll("echo", []byte{byte(k)})
	}
	f.b.settle(t)
	for i, m := range f.managers {
		m.mu.Lock()
		if n := m.invVoter.Pending() + m.respVoter.Pending(); n != 0 {
			t.Errorf("manager %d: %d votes still pending", i, n)
		}
		if n := opKeyedEntries(reflect.ValueOf(m).Elem()); n != 0 {
			t.Errorf("manager %d keeps %d per-operation records after every call settled", i, n)
		}
		for g, st := range m.hosted {
			if n := opKeyedEntries(reflect.ValueOf(st).Elem()); n > calls {
				t.Errorf("manager %d, replica of %s: %d retained replies after %d calls", i, g, n, calls)
			}
			if st.inflight != 0 || len(st.backlog) != 0 {
				t.Errorf("manager %d, replica of %s: %d in flight, %d backlogged", i, g, st.inflight, len(st.backlog))
			}
		}
		m.mu.Unlock()
	}
}
