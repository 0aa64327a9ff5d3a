package fuzzer_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// TestCampaignBaselineSpectreV1 checks that the insecure out-of-order CPU
// violates CT-SEQ (Spectre-v1-style leaks) within a small budget.
func TestCampaignBaselineSpectreV1(t *testing.T) {
	cfg := fuzzer.QuickConfig(1, 20)
	cfg.StopOnFirstViolation = true
	res := runCampaign(t, "Baseline", cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("expected a CT-SEQ violation on the baseline CPU, found none")
	}
	v := res.Violations[0]
	if !v.CTrace.Equal(v.CTrace) || v.TraceA.Equal(v.TraceB) {
		t.Fatalf("inconsistent violation record")
	}
}

// TestCampaignBaselineCTCond looks for Spectre-v4 (CT-COND violations).
// The paper reports these are orders of magnitude rarer than v1 (hours vs
// minutes of campaign time), so this test only requires the campaign to
// run cleanly and reports what it finds.
func TestCampaignBaselineCTCond(t *testing.T) {
	cfg := fuzzer.QuickConfig(11, 120)
	cfg.Contract = contract.CTCond
	runCampaign(t, "Baseline vs CT-COND", cfg)
}
