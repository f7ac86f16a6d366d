package replication

import "immune/internal/ids"

// opStoreLimit bounds every per-operation payload the Manager keeps once
// an operation is decided: the decided-response cache (a local client
// replica can lag its peers, whose copies alone may decide the vote; the
// cache bridges that window) and each replica's executed-reply retention
// (at-most-once execution: a retried operation gets its original reply
// back, never a re-execution).
const opStoreLimit = 8192

// opStore maps operations to payloads and, once it holds opStoreLimit of
// them, forgets the oldest insertion for each new one. The zero value is
// an empty store. It is the one bounding rule for decided work; undecided
// work is bounded by MaxInFlight, MaxBacklog and the voters' own windows.
type opStore struct {
	vals map[ids.OperationID][]byte
	keys []ids.OperationID // insertion order; a ring once full
	next int               // when full: the oldest key, overwritten next
}

// put records v for op and reports whether op was new; an operation
// already present keeps its first payload.
func (s *opStore) put(op ids.OperationID, v []byte) bool {
	if _, dup := s.vals[op]; dup {
		return false
	}
	if s.vals == nil {
		s.vals = make(map[ids.OperationID][]byte)
	}
	if len(s.keys) < opStoreLimit {
		s.keys = append(s.keys, op)
	} else {
		delete(s.vals, s.keys[s.next])
		s.keys[s.next] = op
		s.next = (s.next + 1) % opStoreLimit
	}
	s.vals[op] = v
	return true
}

func (s *opStore) get(op ids.OperationID) ([]byte, bool) {
	v, ok := s.vals[op]
	return v, ok
}

// take is get for a payload wanted once: the entry is removed (its key
// keeps its place in the ring until overwritten, which then removes
// nothing).
func (s *opStore) take(op ids.OperationID) ([]byte, bool) {
	v, ok := s.vals[op]
	delete(s.vals, op)
	return v, ok
}

func (s *opStore) len() int { return len(s.vals) }

// each visits the entries oldest first — the order state transfer frames
// them in, so every provider emits the same bytes.
func (s *opStore) each(fn func(op ids.OperationID, v []byte)) {
	for i := range s.keys {
		op := s.keys[(s.next+i)%len(s.keys)]
		if v, ok := s.vals[op]; ok {
			fn(op, v)
		}
	}
}
