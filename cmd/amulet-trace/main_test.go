package main

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestPrimeFollowsDefense checks that the traced case starts from the L1D
// its campaigns start from: empty after CleanupSpec's invalidate prime, full
// of conflict lines after InvisiSpec's fill prime, and as reset with -prime
// off.
func TestPrimeFollowsDefense(t *testing.T) {
	l1d := uarch.DefaultConfig().Hier.L1D
	full := l1d.Sets * l1d.Ways
	prog := &isa.Program{Insts: []isa.Inst{isa.Load(1, 3, 0, 8), isa.Fence()}}
	for _, tc := range []struct {
		defense string
		prime   bool
		lines   int
	}{
		{"cleanupspec", true, 0},
		{"invisispec", true, full},
		{"invisispec", false, 0},
	} {
		spec, err := experiments.DefenseByName(tc.defense)
		if err != nil {
			t.Fatal(err)
		}
		core, err := newCore(spec, prog, isa.Sandbox{Pages: spec.Pages}, tc.prime)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(core.Hier.L1D.Snapshot()); got != tc.lines {
			t.Errorf("%s, prime %v: L1D holds %d lines before the run, want %d", tc.defense, tc.prime, got, tc.lines)
		}
	}
}
