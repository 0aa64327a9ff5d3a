package experiments

import (
	"flag"
	"strings"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// CampaignFlags is the campaign-shape flag set shared by cmd/amulet,
// cmd/amulet-coordinator and cmd/amulet-worker. A coordinator and its
// workers MUST be launched with identical values — the campaign
// configuration fingerprint is derived from them, and the join handshake
// refuses a worker whose fingerprint disagrees with the coordinator's.
// Sharing one definition keeps the flag names and defaults from drifting
// apart, so a coordinator's checkpoint resumes under plain `amulet -resume`
// given the same flags.
type CampaignFlags struct {
	Defense    *string
	ISA        *string
	Contract   *string
	Instances  *int
	Programs   *int
	BaseInputs *int
	Mutants    *int
	Seed       *int64
	StopFirst  *bool
}

// AddCampaignFlags registers the shared campaign flags on fs.
func AddCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	return &CampaignFlags{
		Defense:    fs.String("defense", "baseline", "target defense configuration ("+strings.Join(DefenseNames(), ", ")+")"),
		ISA:        fs.String("isa", isa.ToyName, "ISA frontend generating test programs ("+strings.Join(isa.FrontendNames(), ", ")+")"),
		Contract:   fs.String("contract", "", "override the contract (CT-SEQ, CT-COND, ARCH-SEQ)"),
		Instances:  fs.Int("instances", 4, "parallel AMuLeT instances"),
		Programs:   fs.Int("programs", 100, "test programs per instance"),
		BaseInputs: fs.Int("base-inputs", 8, "base inputs per program"),
		Mutants:    fs.Int("mutants", 5, "contract-preserving mutants per base input"),
		Seed:       fs.Int64("seed", 1, "campaign seed"),
		StopFirst:  fs.Bool("stop-on-first", false, "stop each instance at its first confirmed violation"),
	}
}

// EngineConfig resolves the parsed flags into an engine configuration of
// the random strategy — the one distributed campaigns run (see
// engine.ErrDistCorpus); cmd/amulet applies its own flags on top.
func (f *CampaignFlags) EngineConfig() (engine.Config, error) {
	spec, err := DefenseByName(*f.Defense)
	if err != nil {
		return engine.Config{}, err
	}
	ccfg := CampaignConfig(spec, Scale{
		Instances:  *f.Instances,
		Programs:   *f.Programs,
		BaseInputs: *f.BaseInputs,
		Mutants:    *f.Mutants,
		BootInsts:  executor.DefaultBootInsts,
		Seed:       *f.Seed,
	})
	frontend, err := isa.FrontendByName(*f.ISA)
	if err != nil {
		return engine.Config{}, err
	}
	ccfg.Base.Frontend = frontend
	if *f.Contract != "" {
		c, err := contract.ByName(*f.Contract)
		if err != nil {
			return engine.Config{}, err
		}
		ccfg.Base.Contract = c
	}
	ccfg.Base.StopOnFirstViolation = *f.StopFirst
	return engine.Config{Campaign: ccfg, Strategy: engine.StrategyRandom}, nil
}
