package fuzzer_test

import (
	"context"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// These integration tests run real (seeded, deterministic) fuzzing
// campaigns against each defense and check the paper's findings table:
// which implementations violate their contracts and which patched variants
// stop doing so.

// runCampaign runs cfg as a single fuzzing instance through the engine and
// returns the instance's result.
func runCampaign(t *testing.T, name string, cfg fuzzer.Config) *fuzzer.Result {
	t.Helper()
	return runCampaignOn(t, name, cfg, 0)
}

// runCampaignOn is runCampaign on the given number of engine workers (zero:
// GOMAXPROCS).
func runCampaignOn(t *testing.T, name string, cfg fuzzer.Config, workers int) *fuzzer.Result {
	t.Helper()
	out, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: 1},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Instances[0]
	t.Logf("%-24s programs=%-4d tests=%-6d violations=%-3d validations=%-4d throughput=%.0f/s elapsed=%v",
		name, res.Programs, res.TestCases, len(res.Violations), res.ValidationRuns,
		res.Throughput(), res.Elapsed)
	return res
}

// campaignConfig is the shared base configuration for campaign tests.
func campaignConfig(seed int64, programs int) fuzzer.Config {
	return fuzzer.Config{
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:     uarch.DefaultConfig(),
			Format:   executor.FormatL1DTLB,
			Prime:    executor.PrimeFill,
			Strategy: executor.StrategyOpt,
			// A short boot keeps test runtimes reasonable; Table 2/3
			// benches use the full startup model.
			BootInsts: 500,
		},
		DefenseFactory:  func() uarch.Defense { return uarch.NopDefense{} },
		Seed:            seed,
		Programs:        programs,
		BaseInputs:      8,
		MutantsPerInput: 5,
	}
}

func TestCampaignInvisiSpecFindsUV1(t *testing.T) {
	cfg := campaignConfig(2, 120)
	cfg.StopOnFirstViolation = true
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	res := runCampaign(t, "InvisiSpec", cfg)
	if len(res.Violations) == 0 {
		t.Errorf("expected UV1 violations in unpatched InvisiSpec")
	}
}

func TestCampaignInvisiSpecPatchedClean(t *testing.T) {
	cfg := campaignConfig(3, 60)
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }
	res := runCampaign(t, "InvisiSpec-Patched", cfg)
	if len(res.Violations) != 0 {
		t.Errorf("expected no violations in patched InvisiSpec at default sizes, got %d", len(res.Violations))
	}
}

// TestCampaignInvisiSpecAmplification reproduces the paper's Table 6: the
// patched InvisiSpec is clean at default sizes but leaks through MSHR
// interference (UV2) once the structures shrink to 2 ways / 2 MSHRs.
func TestCampaignInvisiSpecAmplification(t *testing.T) {
	cfg := campaignConfig(5, 400)
	cfg.StopOnFirstViolation = true
	cfg.Exec.Core.Hier.L1D.Ways = 2
	cfg.Exec.Core.Hier.MSHRs = 2
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }
	res := runCampaign(t, "InvisiSpec-P 2way/2mshr", cfg)
	if len(res.Violations) == 0 {
		t.Errorf("expected UV2 interference violations with 2 MSHRs")
	}
}

func TestCampaignCleanupSpecFindsLeaks(t *testing.T) {
	cfg := campaignConfig(5, 120)
	cfg.StopOnFirstViolation = true
	cfg.Exec.Prime = executor.PrimeInvalidate
	cfg.DefenseFactory = func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) }
	res := runCampaign(t, "CleanupSpec", cfg)
	if len(res.Violations) == 0 {
		t.Errorf("expected violations in unpatched CleanupSpec")
	}
	// A violation keeps content-sized copies of its traces, not the
	// executor's recycled buffers, which are grown to the whole L1D: under
	// the invalidate prime the cache holds a few lines, so a kept buffer
	// would pin many times its content for the rest of the campaign. The
	// cache sections' copies are sized by mem.CacheDelta.Clone, which
	// TestCacheDeltaCloneIsSized pins.
	for _, v := range res.Violations {
		for _, tr := range []*executor.UTrace{v.TraceA, v.TraceB} {
			if cap(tr.TLB) > 2*len(tr.TLB) {
				t.Errorf("violation trace keeps TLB %d/%d (len/cap), want a content-sized copy",
					len(tr.TLB), cap(tr.TLB))
			}
		}
	}
}

// TestCampaignSpecLFBFindsUV6 runs at seed 8: UV6 is rare, and with every
// program drawing from its own unit stream, seed 7 finds nothing in 250
// programs while seeds 5, 8 and 12 find it at programs 53, 38 and 43.
func TestCampaignSpecLFBFindsUV6(t *testing.T) {
	cfg := campaignConfig(8, 250)
	cfg.StopOnFirstViolation = true
	cfg.Exec.Prime = executor.PrimeInvalidate
	cfg.DefenseFactory = func() uarch.Defense { return speclfb.New(speclfb.Config{}) }
	res := runCampaign(t, "SpecLFB", cfg)
	if len(res.Violations) == 0 {
		t.Errorf("expected UV6 violations in unpatched SpecLFB")
	}
}

func TestCampaignSpecLFBPatchedClean(t *testing.T) {
	cfg := campaignConfig(8, 60)
	cfg.Exec.Prime = executor.PrimeInvalidate
	cfg.DefenseFactory = func() uarch.Defense { return speclfb.New(speclfb.Config{PatchUV6: true}) }
	res := runCampaign(t, "SpecLFB-Patched", cfg)
	if len(res.Violations) != 0 {
		t.Errorf("expected no violations in patched SpecLFB, got %d", len(res.Violations))
	}
}

// TestCampaignSpecLFBFilteredByArchSeq reproduces the paper's filtering
// step: the UV6 register-value leak is contract-allowed under ARCH-SEQ, so
// the same campaign finds nothing against that contract. It runs at the UV6
// seed, 8, where the CT-SEQ campaign finds the leak at program 38.
func TestCampaignSpecLFBFilteredByArchSeq(t *testing.T) {
	cfg := campaignConfig(8, 120)
	cfg.Contract = contract.ArchSeq
	cfg.Exec.Prime = executor.PrimeInvalidate
	cfg.DefenseFactory = func() uarch.Defense { return speclfb.New(speclfb.Config{}) }
	res := runCampaign(t, "SpecLFB vs ARCH-SEQ", cfg)
	if len(res.Violations) != 0 {
		t.Errorf("UV6 should be filtered by ARCH-SEQ, got %d violations", len(res.Violations))
	}
}

func TestCampaignSTTFindsKV3(t *testing.T) {
	cfg := campaignConfig(9, 150)
	cfg.StopOnFirstViolation = true
	cfg.Contract = contract.ArchSeq
	cfg.Gen.Pages = 128
	cfg.DefenseFactory = func() uarch.Defense { return stt.New(stt.Config{}) }
	res := runCampaign(t, "STT", cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("expected KV3 TLB violations in unpatched STT")
	}
	// The KV3 leak is TLB-only: tainted stores install translations but
	// never touch the cache.
	v := res.Violations[0]
	if slices.Equal(v.TraceA.TLB, v.TraceB.TLB) {
		t.Errorf("expected the STT violation to differ in TLB state:\n%s", v.TraceA.Diff(v.TraceB))
	}
}

func TestCampaignSTTPatchedClean(t *testing.T) {
	cfg := campaignConfig(10, 60)
	cfg.Contract = contract.ArchSeq
	cfg.Gen.Pages = 128
	cfg.DefenseFactory = func() uarch.Defense { return stt.New(stt.Config{PatchKV3: true}) }
	res := runCampaign(t, "STT-Patched", cfg)
	if len(res.Violations) != 0 {
		t.Errorf("expected no violations in patched STT, got %d", len(res.Violations))
	}
}

// TestCampaignInvisiSpecKV1ICache reproduces the paper's KV1: InvisiSpec
// does not protect the instruction cache, so campaigns that include the
// L1I state in the µarch trace detect timing-driven fetch differences even
// on the *patched* implementation. The violations must vanish with the
// default (L1D+TLB) trace, which is why KV1 is a separate, weaker finding.
func TestCampaignInvisiSpecKV1ICache(t *testing.T) {
	cfg := campaignConfig(12, 150)
	cfg.StopOnFirstViolation = true
	cfg.Exec.Format = executor.FormatL1DTLBL1I
	// In this pipeline model, speculative-load latency couples into the
	// fetch unit's run-ahead through MSHR occupancy, so the instruction-
	// cache channel needs the amplified configuration to show within a
	// small budget (§3.4).
	cfg.Exec.Core.Hier.MSHRs = 2
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }
	res := runCampaign(t, "InvisiSpec-P +L1I", cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("expected a KV1 instruction-cache violation in patched InvisiSpec (program 75 at this seed)")
	}
	v := res.Violations[0]
	if !v.TraceA.L1D.Equal(&v.TraceB.L1D) || !slices.Equal(v.TraceA.TLB, v.TraceB.TLB) ||
		v.TraceA.L1I.Equal(&v.TraceB.L1I) {
		t.Errorf("expected an L1I-only difference at program %d:\n%s", v.ProgramIndex, v.TraceA.Diff(v.TraceB))
	}
}
