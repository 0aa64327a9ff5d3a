package engine

import (
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestUnitSteadyStateAllocs pins what a whole work unit — generate,
// collect, execute, compare, validate, encode the result — allocates on a
// UnitRunner whose executor and workspace have warmed up: only what
// outlives the unit. Sixty consecutive units of one instance run on one
// runner, as a distributed worker runs its leases; the mean over the last
// fifty must stay within budget.
//
// The accounting, per unit:
//
//   - the program: the toy generator's block tables, the Program and its
//     instruction slice (3); the wasm generator's the same, plus its
//     validation's depth table and the lowering's depth, µop-index and µop
//     tables and µop Program (8);
//   - the unit's Result (1); no coverage map — a UnitRunner runs
//     random-strategy campaigns, which collect none;
//   - a violating unit's report: the Violation, one buffer for both
//     encoded inputs, the contract-trace copy, the retained validation
//     traces with their snapshot buffers, and their encoded copies (a few
//     dozen, in 3 of the 50 measured units of the invisispec campaign);
//   - warm-up not yet finished by unit 10: the executor's trace freelist
//     grows to the widest contract-equivalence class seen so far, a trace
//     and its snapshot buffers at a time, and a core's recycled dynamic
//     instructions get their fill-ID lists on their first cache miss.
//
// Measured: 7 objects per unit (invisispec, toy, CT-SEQ) and 11
// (cleanupspec, wasm), against 190 and 285 before the workspace. The
// budget is 16.
func TestUnitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own (18 objects per unit against the budget of 16); the budget pins the production build")
	}
	const budget = 16
	toy := engineConfig(1, 1, 60)
	toy.Campaign.Base.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	toy.Campaign.Base.BaseInputs, toy.Campaign.Base.MutantsPerInput = 8, 5

	wasmCfg := engineConfig(2, 1, 60)
	wasmCfg.Campaign.Base.Frontend = wasm.Frontend
	wasmCfg.Campaign.Base.DefenseFactory = func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) }
	wasmCfg.Campaign.Base.Exec.Prime = executor.PrimeInvalidate
	wasmCfg.Campaign.Base.BaseInputs, wasmCfg.Campaign.Base.MutantsPerInput = 8, 5

	for _, tc := range []struct {
		name      string
		cfg       Config
		violating bool // some measured unit must violate
	}{{"invisispec-toy", toy, true}, {"cleanupspec-wasm", wasmCfg, false}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewUnitRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			p, cases, violations := 0, 0, 0 // violations: of the measured units
			next := func() {
				rec, _, err := r.Run(ctx, UnitID{Inst: 0, Prog: p})
				if err != nil {
					t.Fatal(err)
				}
				if p >= 10 {
					violations += len(rec.Violations)
				}
				p++
				cases += rec.TestCases
			}
			for p < 9 {
				next()
			}
			// AllocsPerRun runs next once more unmeasured: 10 warm-up units.
			allocs := testing.AllocsPerRun(50, next)
			t.Logf("%.0f objects per unit over units 10..59 (%d violations; %d cases in all 60)", allocs, violations, cases)
			if tc.violating && violations == 0 {
				t.Error("no unit violated: the budget must cover a violating unit's report")
			}
			if allocs > budget {
				t.Errorf("a work unit allocates %.0f objects in steady state, budget %d", allocs, budget)
			}
		})
	}
}
