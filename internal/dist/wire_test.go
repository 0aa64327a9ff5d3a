package dist_test

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/engine"
)

// TestWireBytesAreLogBytes: a result is encoded once, by its worker. The
// coordinator checks and decodes it, and its checkpoint log's unit record
// is byte for byte the record the worker put on the wire — for every unit
// of the golden campaign, the violating ones included.
func TestWireBytesAreLogBytes(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	dir := t.TempDir()
	ckpt := cfg
	ckpt.CheckpointDir = dir
	_, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: ckpt, LeaseTTL: time.Minute}, "127.0.0.1:0")
	cl, id, runner := handClient(t, base, cfg)

	sent := map[engine.UnitID][]byte{} // the unit record inside each sealed request
	violating := 0
	req := &dist.ExchangeRequest{WorkerID: id, Want: 4}
	for {
		req.Seq++
		frame, err := dist.Seal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range req.Results {
			rec := append(checkpoint.AppendUnitHeader(nil, r.Inst, r.Prog, r.Draws), r.Result...)
			if !bytes.Contains(frame, rec) {
				t.Fatalf("unit (%d,%d): its record is not in the frame that carries it", r.Inst, r.Prog)
			}
			sent[engine.UnitID{Inst: r.Inst, Prog: r.Prog}] = rec
		}
		rep, err := cl.Exchange(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Units) == 0 {
			break
		}
		req.Results = runUnits(t, runner, rep.Units)
		for _, r := range req.Results {
			var rec checkpoint.ResultRec
			if err := rec.UnmarshalBinary(r.Result); err != nil {
				t.Fatal(err)
			}
			violating += min(len(rec.Violations), 1)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	if _, err := checkpoint.Walk(raw, func(kind byte, payload []byte, _ int) error {
		if kind != checkpoint.RecUnit {
			return nil
		}
		inst, prog, _, _, err := checkpoint.SplitUnit(payload)
		if err != nil {
			return err
		}
		logged++
		if want := sent[engine.UnitID{Inst: inst, Prog: prog}]; !bytes.Equal(payload, want) {
			t.Errorf("unit (%d,%d): the log's record (%d bytes) is not the one its worker sent (%d bytes)", inst, prog, len(payload), len(want))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if logged != len(sent) || logged != 80 || violating == 0 {
		t.Errorf("%d unit records logged, %d sent, %d violating; want all 80, some violating", logged, len(sent), violating)
	}
}

// TestOldWirePathRefused: a worker of an older protocol posts to /v1/ (JSON
// results) or /v2/ (a heartbeat message of its own). The coordinator has no
// such endpoints, so the worker is refused at join — a 404, which its client
// reports as "coordinator refused" and does not retry — instead of failing
// on its first result or heartbeat.
func TestOldWirePathRefused(t *testing.T) {
	_, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: time.Minute}, "127.0.0.1:0")
	body, err := dist.Seal(&dist.JoinRequest{Worker: "old"})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/join", "/v2/join"} {
		resp, err := http.Post(base+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
