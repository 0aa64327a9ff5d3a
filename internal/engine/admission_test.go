package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// corpusConfig is the corpus campaign the admission tests run: 2 instances
// of 12 programs in 3 epochs of 4 programs each.
func corpusConfig(workers int) Config {
	cfg := engineConfig(1, 2, 12)
	cfg.Strategy, cfg.Epochs, cfg.Workers = StrategyCorpus, 3, workers
	return cfg
}

// corpusState is what a corpus campaign admitted: its entries (program
// bytes, new features, violating) and its merged coverage words.
type corpusState struct {
	entries []string
	cover   []uint64
}

func corpusOf(d *DistCampaign) corpusState {
	d.mu.Lock()
	defer d.mu.Unlock()
	var s corpusState
	for _, e := range d.c.entries {
		s.entries = append(s.entries, fmt.Sprintf("%x/%d/%t", checkpoint.EncodeProg(e.Prog).Data, e.NewBits, e.Violating))
	}
	s.cover = d.c.cover.Words()
	return s
}

// runWithSettleHook runs cfg's campaign, calling check under the campaign
// lock after every settle.
func runWithSettleHook(ctx context.Context, t *testing.T, cfg Config, check func(*DistCampaign)) (*DistCampaign, *fuzzer.CampaignResult, error) {
	t.Helper()
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.settled = check
	return c.run(ctx, corpus, cfg.Resume)
}

// stopFirstCorpusConfig is a stop-on-first corpus campaign whose cuts fall
// in later epochs: InvisiSpec, 2 instances of 24 programs in 3 epochs, cut
// at programs 12 and 16 — so the front leaves one instance mid-epoch and
// skips it in the next.
func stopFirstCorpusConfig(workers int) Config {
	cfg := engineConfig(3, 2, 24)
	cfg.Campaign.Base.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	cfg.Campaign.Base.StopOnFirstViolation = true
	cfg.Strategy, cfg.Epochs, cfg.Workers = StrategyCorpus, 3, workers
	return cfg
}

// TestAdmissionFront: at every settle of a corpus campaign, at 1, 2 and 4
// workers and with stop-on-first too, the open epoch holds a program only
// for a unit it admitted or one the admission front has not reached; the
// front never stands at a settled unit, so on one worker no settled unit
// waits ahead of it; and without stop-on-first every instance's fold point
// is the front itself. The admitted corpus and coverage are the same at
// every worker count.
//
// With more workers, how many settled units wait ahead of the front
// depends on how long the unit at the front runs while the others finish
// theirs; nothing bounds it short of idling workers, so it is logged, not
// pinned.
func TestAdmissionFront(t *testing.T) {
	for _, stopFirst := range []bool{false, true} {
		var want corpusState
		for _, workers := range []int{1, 2, 4} {
			tag := fmt.Sprintf("stop-on-first=%t, %d workers", stopFirst, workers)
			cfg := corpusConfig(workers)
			if stopFirst {
				cfg = stopFirstCorpusConfig(workers)
			}
			settles, maxAhead := 0, 0
			d, res, err := runWithSettleHook(context.Background(), t, cfg, func(d *DistCampaign) {
				settles++
				checkHeldPrograms(t, tag, d)
				c := d.c
				ahead := 0
				for i := d.frontInst; i < c.instances; i++ {
					for p := frontPoint(d, i); p < d.hi; p++ {
						if c.done[i][p] {
							ahead++
						}
					}
					if f := c.folds[i]; !stopFirst && f.next != frontPoint(d, i) {
						t.Errorf("%s: instance %d's fold point %d, admission front %d", tag, i, f.next, frontPoint(d, i))
					}
				}
				if i := d.frontInst; i < c.instances && c.done[i][d.frontProg] {
					t.Errorf("%s: the admission front stopped at (%d,%d), which has settled", tag, i, d.frontProg)
				}
				maxAhead = max(maxAhead, ahead)
				if workers == 1 && ahead > 0 {
					t.Errorf("%s: %d settled units wait ahead of the front on one worker", tag, ahead)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if settles == 0 {
				t.Fatalf("%s: the settle hook never ran", tag)
			}
			t.Logf("%s: %d settles, at most %d settled units ahead of the front", tag, settles, maxAhead)
			checkAllFoldedOrCut(t, tag, d, res)
			got := corpusOf(d)
			if len(got.entries) == 0 {
				t.Fatalf("%s: nothing admitted", tag)
			}
			if want.entries == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: corpus differs from one worker's", tag)
			}
		}
	}
}

// checkAllFoldedOrCut fails unless every instance folded every unit, or —
// under stop-on-first — every unit up to its cut.
func checkAllFoldedOrCut(t *testing.T, tag string, d *DistCampaign, res *fuzzer.CampaignResult) {
	t.Helper()
	next := checkFolded(t, tag, d)
	for i, inst := range res.Instances {
		want := d.c.programs
		if d.c.base.StopOnFirstViolation && len(inst.Violations) > 0 {
			want = inst.Violations[0].ProgramIndex + 1
		}
		if next[i] < want {
			t.Errorf("%s: instance %d folded %d units, want at least %d", tag, i, next[i], want)
		}
	}
}

// TestResumeCorpusMidEpoch: a corpus campaign cancelled in the middle of
// epoch 0 or 1 — before, while and after the admission front passes units
// of the open epoch — and resumed from its log admits the same corpus,
// merges the same coverage and finds the same violations as one never
// interrupted, at 1 and 2 workers; so does one interrupted twice.
func TestResumeCorpusMidEpoch(t *testing.T) {
	ctx := context.Background()
	clean, wantRes, err := runCampaign(ctx, corpusConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wantCorpus := corpusOf(clean)
	// Epochs 0 and 1 are units 1–8 and 9–16 to start.
	for _, cancelAt := range [][]int{{2}, {5}, {7}, {10}, {13}, {15}, {3, 4}, {11, 3}} {
		for _, workers := range []int{1, 2} {
			tag := fmt.Sprintf("cancelled at %v, %d workers", cancelAt, workers)
			dir := t.TempDir()
			for k, n := range cancelAt {
				runCtx, cancel := context.WithCancel(ctx)
				inj := faultinject.New()
				inj.ArmCancel(n, cancel)
				cfg := corpusConfig(workers)
				cfg.CheckpointDir, cfg.Resume, cfg.Inject = dir, k > 0, inj
				_, _, err := runCampaign(runCtx, cfg)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: interrupted run %d: err = %v, want context.Canceled", tag, k, err)
				}
			}
			cfg := corpusConfig(workers)
			cfg.CheckpointDir, cfg.Resume = dir, true
			d, res, err := runCampaign(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: resume: %v", tag, err)
			}
			if got, want := fingerprint(res), fingerprint(wantRes); got != want {
				t.Errorf("%s: resumed fingerprint %#x, uninterrupted %#x", tag, got, want)
			}
			if got := corpusOf(d); !reflect.DeepEqual(got, wantCorpus) {
				t.Errorf("%s: resumed corpus (%d entries) differs from the uninterrupted one (%d)", tag, len(got.entries), len(wantCorpus.entries))
			}
		}
	}
}
