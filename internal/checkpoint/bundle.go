package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/sith-lab/amulet-go/internal/faultinject"
)

// BundleDir is the quarantine subdirectory of a checkpoint directory.
const BundleDir = "quarantine"

// Bundle kinds.
const (
	BundlePanic   = "panic"   // the unit's worker panicked
	BundleTimeout = "timeout" // the watchdog degraded a wedged unit
	BundleLost    = "lost"    // the unit lost its distributed workers, too many times to run again
)

// Bundle is a quarantined work unit's repro bundle: everything needed to
// re-run exactly the unit that failed, standalone, plus what it died of.
// Units are seed-deterministic, so (campaign seed, instance, program) —
// with the campaign config identified by ConfigFP — replays the identical
// generate→collect→execute pipeline; engine.ReplayUnit consumes bundles.
type Bundle struct {
	// ConfigFP is the owning campaign's config fingerprint; replay refuses
	// a bundle against a different configuration.
	ConfigFP uint64
	Defense  string
	Contract string
	// Frontend names the ISA frontend the campaign ran; ReplayUnit refuses
	// a bundle against a campaign configured for a different frontend.
	Frontend string

	// Seed is the unit's derived RNG seed (fuzzer.UnitSeed of the campaign
	// seed at these coordinates); Inst/Prog are the unit coordinates.
	Seed       int64
	Inst, Prog int

	// Kind is BundlePanic, BundleTimeout or BundleLost; Value renders the
	// recovered panic value (empty for timeouts; "lost N workers" for a
	// lost unit); Stack is the worker goroutine's stack at recovery (empty
	// for timeouts — the wedged goroutine is abandoned, not inspected — and
	// for lost units, whose workers died elsewhere).
	Kind  string
	Value string
	Stack string
}

// BundlePath returns where a unit's bundle of the given kind lives under
// the checkpoint directory.
func BundlePath(dir string, inst, prog int, kind string) string {
	return filepath.Join(dir, BundleDir, fmt.Sprintf("unit-%d-%d-%s.json", inst, prog, kind))
}

// SaveBundle writes b under dir's quarantine subdirectory and returns the
// path. The write goes through the checkpoint package's atomic
// temp→fsync→rename protocol: a crash mid-quarantine leaves either no
// bundle or a complete one, never a torn JSON file that engine.ReplayUnit
// chokes on. inj (nil in production) lets the fault-injection tests kill
// the write between steps exactly as they do for the checkpoint itself.
func SaveBundle(dir string, b *Bundle, inj *faultinject.Injector) (string, error) {
	qdir := filepath.Join(dir, BundleDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: quarantine: %w", err)
	}
	data, err := encodeBundle(b)
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("unit-%d-%d-%s.json", b.Inst, b.Prog, b.Kind)
	if err := writeAtomic(qdir, name, data, inj); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	return filepath.Join(qdir, name), nil
}

// encodeBundle renders a bundle as its file's bytes: indented JSON, for the
// person who opens it.
func encodeBundle(b *Bundle) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: quarantine: %w", err)
	}
	return data, nil
}

// LoadBundle reads a repro bundle.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: quarantine: %w", err)
	}
	b, err := DecodeBundle(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// DecodeBundle decodes a bundle file's bytes. A bundle may have been copied
// in from anywhere, so it is checked as far as it can be on its own: a
// known kind, unit coordinates that are not negative. ReplayUnit checks the
// rest against the campaign.
func DecodeBundle(data []byte) (*Bundle, error) {
	b := &Bundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("checkpoint: quarantine: %w", err)
	}
	if b.Kind != BundlePanic && b.Kind != BundleTimeout && b.Kind != BundleLost {
		return nil, fmt.Errorf("checkpoint: quarantine: unknown bundle kind %q", b.Kind)
	}
	if b.Inst < 0 || b.Prog < 0 {
		return nil, fmt.Errorf("checkpoint: quarantine: unit (%d,%d)", b.Inst, b.Prog)
	}
	return b, nil
}
