package membership

import (
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/sec"
)

// TestTickDeadline pins the deadline Tick reports in each state, on the
// simulator's manual clock (ProposeInterval 1ms, FormTimeout 20ms,
// FlushTimeout 10ms; AnnounceInterval 50ms and RejoinInterval 25ms by
// default).
func TestTickDeadline(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name  string
		self  ids.ProcessorID
		setup func(sim *memberSim, m *Membership)
		want  time.Duration // after the start of the clock; -1: none
	}{
		{"lowest member announces", 1, func(*memberSim, *Membership) {}, 50 * ms},
		{"other member", 2, func(*memberSim, *Membership) {}, -1},
		{"joining from scratch", 1, func(_ *memberSim, m *Membership) {
			m.current = Install{}
		}, -1},
		{"excluded re-requests admission", 1, func(_ *memberSim, m *Membership) {
			m.current = Install{ID: 2, Ring: 2, Members: []ids.ProcessorID{2, 3}}
		}, 25 * ms},
		{"leaving", 1, func(sim *memberSim, m *Membership) {
			m.Leave()
			sim.clock = sim.clock.Add(5 * ms)
		}, 25 * ms},
		{"forming: next proposal", 1, func(sim *memberSim, m *Membership) {
			sim.sources[1].suspects[3] = true
			m.Tick() // begins forming: proposes at 0
			sim.clock = sim.clock.Add(ms / 2)
			// The Tick under test flushes at 0.5ms.
		}, ms},
		{"forming: next flush", 1, func(sim *memberSim, m *Membership) {
			sim.sources[1].suspects[3] = true
			m.Tick()
			sim.clock = sim.clock.Add(ms / 2)
			m.Tick() // flushes at 0.5ms
			sim.clock = sim.clock.Add(7 * ms / 10)
			// The Tick under test proposes at 1.2ms.
		}, 3 * ms / 2},
		{"forming: flush barrier", 1, func(sim *memberSim, m *Membership) {
			m.cfg.ProposeInterval = time.Hour
			sim.sources[1].suspects[3] = true
			m.Tick()
		}, 10 * ms},
		{"forming: unresponsive check", 1, func(sim *memberSim, m *Membership) {
			m.cfg.ProposeInterval = time.Hour
			sim.sources[1].suspects[3] = true
			m.Tick()
			sim.clock = sim.clock.Add(10 * ms) // the barrier has expired
		}, 20 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := newMemberSim(t, []ids.ProcessorID{1, 2, 3}, sec.LevelNone)
			t0 := sim.clock
			m := sim.insts[tc.self]
			tc.setup(sim, m)
			var want time.Time
			if tc.want >= 0 {
				want = t0.Add(tc.want)
			}
			if got := m.Tick(); !got.Equal(want) {
				t.Fatalf("Tick() = %v, want %v", got, want)
			}
		})
	}
}
