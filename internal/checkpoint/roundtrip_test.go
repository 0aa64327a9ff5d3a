package checkpoint_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// TestUnitRecRoundTrip: decode∘encode is the identity on real violating
// units — both frontends, a 1-page and a 128-page sandbox, and the legacy
// stream whose inputs are dense — compared by value, and re-encoding gives
// identical bytes. The decoded violations replay to the same fingerprint.
func TestUnitRecRoundTrip(t *testing.T) {
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		fe     isa.Frontend
		pages  int
		legacy bool
	}{
		{"toy/1", isa.Toy, 1, false},
		{"toy/128", isa.Toy, 128, false},
		{"wasm/1", wasm.Frontend, 1, false},
		{"wasm/128", wasm.Frontend, 128, false},
		{"toy/1/dense", isa.Toy, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := experiments.Scale{Instances: 1, Programs: 200, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
			cfg := engine.Config{Campaign: experiments.CampaignConfig(spec, sc), Strategy: engine.StrategyRandom}
			cfg.Campaign.Base.Frontend = tc.fe
			cfg.Campaign.Base.Gen.Pages = tc.pages
			cfg.Campaign.Base.Gen.LegacyRand = tc.legacy
			runner, err := engine.NewUnitRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			u := checkpoint.UnitRec{}
			for ; len(u.Result.Violations) == 0; u.Prog++ {
				if u.Prog == sc.Programs {
					t.Fatal("no violating unit")
				}
				if u.Result, u.RNGDraws, err = runner.Run(context.Background(), engine.UnitID{Prog: u.Prog}); err != nil {
					t.Fatal(err)
				}
			}
			u.Prog--
			enc, err := u.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			var back checkpoint.UnitRec
			if err := back.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			if back.Inst != u.Inst || back.Prog != u.Prog || back.RNGDraws != u.RNGDraws ||
				!checkpoint.SameResult(&back.Result, &u.Result) {
				t.Errorf("unit (%d,%d) does not survive its round trip", u.Inst, u.Prog)
			}
			if again, _ := back.AppendBinary(nil); !bytes.Equal(again, enc) {
				t.Error("re-encoding changed the bytes")
			}
			want := fuzzer.ViolationFingerprint(u.Result.Decode().Violations)
			if got := fuzzer.ViolationFingerprint(back.Result.Decode().Violations); got != want {
				t.Errorf("decoded violations fingerprint %#x, want %#x", got, want)
			}
			t.Logf("%d violations in %d bytes", len(u.Result.Violations), len(enc))
		})
	}
}
