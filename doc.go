// Package amulet is AMuLeT-Go: a from-scratch Go reproduction of
// "AMuLeT: Automated Design-Time Testing of Secure Speculation
// Countermeasures" (ASPLOS 2025).
//
// AMuLeT applies model-based relational testing to micro-architectural
// simulators: it generates random test programs and contract-equivalent
// input pairs, runs them on a functional leakage model and on a simulated
// out-of-order CPU with a secure-speculation countermeasure attached, and
// flags any pair whose micro-architectural traces differ even though the
// contract says they must be indistinguishable.
//
// The repository contains the complete stack the paper's artifact relies
// on, re-implemented in Go with only the standard library: an ISA and
// functional emulator (the Unicorn stand-in), leakage contracts (CT-SEQ,
// CT-COND, ARCH-SEQ), a cycle-driven out-of-order core with caches, MSHRs,
// TLB and predictors (the gem5 stand-in), the four countermeasures the
// paper tests — InvisiSpec, CleanupSpec, STT and SpecLFB, each with the
// implementation bugs the paper discovered and patch switches — and the
// fuzzer, analysis and experiment layers on top.
//
// # Cache priming between test cases (executor.PrimeMode)
//
// Before every test case the executor re-establishes a canonical
// memory-system state; which one is part of each defense's campaign
// configuration (paper §3.2 C2 and §3.5):
//
//   - PrimeFill simulates a fill request for every L1D set × way with
//     conflicting out-of-sandbox addresses, so leaks show through installs
//     AND evictions; the priming pages displace the D-TLB the same way.
//     InvisiSpec and STT campaigns use it — the extra simulated requests
//     are why those campaigns run slower than CleanupSpec/SpecLFB
//     (Table 4).
//   - PrimeInvalidate resets L1D, L1I and D-TLB through a direct simulator
//     hook, starting every case from a clean state (CleanupSpec, SpecLFB).
//   - PrimeNone leaves all state from the previous case (no campaign uses
//     it; the executor's boot and start tests do, so that no prime hides
//     state a start leaves behind).
//
// Neither mode touches the L2: as in the paper's setup, the L2 stays warm
// across the inputs of a program, so the first input of a program runs
// with a cold L2 and later inputs see realistic hit latencies; the fill
// prime drops its own lines' L2 copies again so only sandbox lines stay.
//
// Both modes are implemented once, in mem.Hierarchy (PrimeL1D and
// PrimeInvalidate), shared by the executor and the gadget tests. By
// default the hierarchy's dirty-set tracking makes the prime incremental —
// only the sets, TLB entries and transient structures the previous case
// dirtied are re-primed, bit-identical to the full prime (pinned by
// TestViolationSetDeterminism and the mem prime tests);
// executor.Config.FullPrime forces the reference full prime.
//
// # Pipeline scheduling
//
// The out-of-order core has one pipeline at every window size. The
// store-queue search, memory-order check and speculation shadow re-derive
// their answers from the ROB window. Issue, writeback and the idle-span
// proof read slot bitmasks instead (the scoreboard: done, waiting, blocked
// and executing slots, one bit per slot of the window's buffer, sized once
// from ROBSize; woken on writeback and commit). A completion watermark
// skips writeback on cycles that wait on one long fill, and provably idle
// spans of cycles are skipped wholesale (uarch/quiescent.go).
// The reference paths — scan issue and writeback, cycle-by-cycle loop —
// are selectable only from tests, through each package's export_test.go,
// and each is held bit-identical to the fast path by a test in its
// package. The pending-fill queue is one (ready cycle, id) min-heap and
// the leakage model one hook-driven emulator. Traces are compared by
// content (UTrace.Equal); nothing is hashed.
// docs/removal-ledger.md records what each cost and why it stayed or went.
//
// Entry points:
//
//   - cmd/amulet: run campaigns and regenerate the paper's tables
//   - cmd/amulet-trace: run one test case under the microscope
//   - examples/: runnable walkthroughs of the paper's case studies
//   - internal/experiments/bench_test.go: one benchmark per evaluation
//     table/figure
//   - bench/: the repository benchmark (five campaign workloads, per-layer
//     metrics; bench/run.sh)
//
// See README.md.
package amulet
