package experiments

import (
	"fmt"
	"io"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// WriteSummary renders the standard campaign summary — the format
// cmd/amulet has always printed and cmd/amulet-coordinator shares. The
// "violation fingerprint:" line is load-bearing: CI's crash/resume and
// distributed smoke jobs diff it between runs to prove bit-identical
// results.
func WriteSummary(w io.Writer, res *fuzzer.CampaignResult) {
	tot := res.Totals()
	fmt.Fprintf(w, "campaign time:     %v\n", res.Elapsed.Round(1e6))
	fmt.Fprintf(w, "test cases:        %d (%.0f/s)\n", res.TestCases, res.Throughput())
	fmt.Fprintf(w, "violations:        %d\n", len(res.Violations))
	fmt.Fprintf(w, "rejected mutants:  %d (validation runs: %d)\n", tot.RejectedMutants, tot.ValidationRuns)
	if tot.Metrics.Truncations > 0 {
		// A non-zero count means some contract traces were silently cut off
		// at the model's step budget — generated programs are DAGs, so this
		// signals a malformed program source rather than normal operation.
		fmt.Fprintf(w, "model truncations: %d (runs cut off at %d steps)\n",
			tot.Metrics.Truncations, contract.MaxSteps)
	}
	cpu := tot.GenTime + tot.ModelTime + tot.Metrics.Startup + tot.Metrics.Prime + tot.Metrics.Simulate + tot.Metrics.TraceExtract
	if cpu > 0 {
		fmt.Fprintf(w, "stage times (cpu): gen %v (%.0f%%) | model %v (%.0f%%) | prime %v (%.0f%%) | exec %v (%.0f%%) | trace %v (%.0f%%) | startup %v (%.0f%%)\n",
			tot.GenTime.Round(1e6), 100*float64(tot.GenTime)/float64(cpu),
			tot.ModelTime.Round(1e6), 100*float64(tot.ModelTime)/float64(cpu),
			tot.Metrics.Prime.Round(1e6), 100*float64(tot.Metrics.Prime)/float64(cpu),
			tot.Metrics.Simulate.Round(1e6), 100*float64(tot.Metrics.Simulate)/float64(cpu),
			tot.Metrics.TraceExtract.Round(1e6), 100*float64(tot.Metrics.TraceExtract)/float64(cpu),
			tot.Metrics.Startup.Round(1e6), 100*float64(tot.Metrics.Startup)/float64(cpu))
	}
	if tot.Metrics.Quarantined > 0 || tot.Metrics.TimedOut > 0 {
		// Degraded units were isolated, not fixed: their programs went
		// untested, so the reported violation set is a lower bound.
		fmt.Fprintf(w, "degraded units:    %d quarantined (panic or lost workers), %d timed out — repro bundles under the checkpoint dir\n",
			tot.Metrics.Quarantined, tot.Metrics.TimedOut)
	}
	if m := tot.Metrics; m.Retries+m.Evictions+m.Reassigned+m.DuplicatesDropped > 0 {
		// Distributed-campaign robustness counters: how much failure the
		// run absorbed on its way to the (still bit-identical) result.
		// Zero on single-process runs, so the line never appears there.
		fmt.Fprintf(w, "robustness:        %d retries, %d evictions, %d reassigned units, %d duplicates dropped\n",
			m.Retries, m.Evictions, m.Reassigned, m.DuplicatesDropped)
	}
	if tot.Coverage != nil {
		fmt.Fprintf(w, "coverage features: %d of %d\n", tot.Coverage.Count(), uarch.CoverageBits)
	}
	if d, ok := res.AvgDetectionTime(); ok {
		fmt.Fprintf(w, "avg detection:     %v\n", d.Round(1e6))
	}
	// The fingerprint digests the full violation set bit for bit; CI's
	// crash/resume smoke diffs this line between an interrupted-and-resumed
	// campaign and an uninterrupted one at the same seed.
	fmt.Fprintf(w, "violation fingerprint: %#016x\n", fuzzer.ViolationFingerprint(res.Violations))
	if len(res.Violations) > 0 {
		fmt.Fprintf(w, "contract violated: YES — the defense leaks more than its contract allows\n")
	} else {
		fmt.Fprintf(w, "contract violated: no violation found at this budget\n")
	}
}
