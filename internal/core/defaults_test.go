package core

import (
	"testing"
	"time"

	"immune/internal/sec"
)

// TestZeroConfigDefaults builds a system from a Config with no knob set
// and reads every default back from the layer that consumes it. Each
// default is applied in exactly one place, so a value here names the one
// site to change — and two layers can never again disagree on one knob
// (as smp's 2ms and ring's 10ms TokenTimeout once did).
func TestZeroConfigDefaults(t *testing.T) {
	sys, err := NewSystem(Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	p := sys.procs[1]
	rk, dk := p.stacks[0].Knobs()
	mc := p.mgrs[0].Config()

	for _, c := range []struct {
		layer, knob string
		got, want   any
	}{
		{"ring", "TokenTimeout", rk.TokenTimeout, 2 * time.Millisecond},
		{"ring", "IdleDelay", rk.IdleDelay, 500 * time.Microsecond},
		{"ring", "MaxPerVisit (TokenBatch)", rk.MaxPerVisit, 6},
		{"ring", "MaxQueue (MaxSubmitQueue)", rk.MaxQueue, 4096},
		{"ring", "MaxUnstable", rk.MaxUnstable, 1024},
		{"detector", "SuspectTimeout", dk.SuspectTimeout, 50 * time.Millisecond},
		{"detector", "StrikeThreshold", dk.StrikeThreshold, 3},
		{"replication", "CallTimeout", mc.CallTimeout, 10 * time.Second},
		{"replication", "MaxInFlight", mc.MaxInFlight, 4096},
		{"replication", "MaxBacklog", mc.MaxBacklog, 1024},
		{"replication", "BacklogTTL", mc.BacklogTTL, 30 * time.Second},
		{"core", "Level", sys.cfg.Level, sec.LevelSignatures},
		{"core", "ModulusBits", sys.keys[1].Public().N.BitLen(), 300},
	} {
		if c.got != c.want {
			t.Errorf("%s %s = %v, want %v", c.layer, c.knob, c.got, c.want)
		}
	}
}
