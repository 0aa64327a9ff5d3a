package faultinject

import (
	"testing"
	"time"
)

// TestRPCNilInjector pins the production hot path: every RPC on a nil
// injector is clean, with zero bookkeeping.
func TestRPCNilInjector(t *testing.T) {
	var inj *Injector
	for i := 0; i < 3; i++ {
		if f := inj.RPC(); !f.Clean() {
			t.Fatalf("nil injector RPC %d: verdict %+v, want clean", i, f)
		}
	}
}

// TestRPCCleanByDefault: an injector with nothing armed passes every call,
// but still numbers them.
func TestRPCCleanByDefault(t *testing.T) {
	inj := New()
	for want := 1; want <= 3; want++ {
		f := inj.RPC()
		if !f.Clean() {
			t.Fatalf("unarmed RPC %d: verdict %+v, want clean", want, f)
		}
		if f.Seq != want {
			t.Fatalf("RPC sequence %d, want %d", f.Seq, want)
		}
		if got := inj.RPCs(); got != want {
			t.Fatalf("RPCs() = %d after %d calls", got, want)
		}
	}
}

// TestRPCArmedPoints exercises each point-addressed network fault on its
// exact sequence number: the armed call gets the fault, every other call
// is clean, and each point fires exactly once.
func TestRPCArmedPoints(t *testing.T) {
	inj := New()
	inj.RPCDelay = 5 * time.Millisecond
	inj.Arm(KindDropRPC, 2, 0)
	inj.Arm(KindDelayRPC, 3, 0)
	inj.Arm(KindDupRPC, 4, 0)
	inj.Arm(KindCorruptRPC, 5, 7)

	verdicts := make([]RPCFault, 6)
	for i := 1; i <= 5; i++ {
		verdicts[i] = inj.RPC()
	}
	if !verdicts[1].Clean() {
		t.Errorf("rpc 1: %+v, want clean", verdicts[1])
	}
	if !verdicts[2].Drop || verdicts[2].Dup || verdicts[2].Corrupt {
		t.Errorf("rpc 2: %+v, want drop only", verdicts[2])
	}
	if verdicts[3].Delay != 5*time.Millisecond {
		t.Errorf("rpc 3: delay %v, want 5ms", verdicts[3].Delay)
	}
	if !verdicts[4].Dup {
		t.Errorf("rpc 4: %+v, want dup", verdicts[4])
	}
	if !verdicts[5].Corrupt || verdicts[5].CorruptByte != 7 {
		t.Errorf("rpc 5: %+v, want corrupt byte 7", verdicts[5])
	}
	if f := inj.RPC(); !f.Clean() {
		t.Errorf("rpc 6 (points exhausted): %+v, want clean", f)
	}
	if got := len(inj.Fired()); got != 4 {
		t.Errorf("%d points fired, want 4", got)
	}
}

// TestRPCSever: after the armed call count, the transport is gone for good
// — every later call fails unsent, forever.
func TestRPCSever(t *testing.T) {
	inj := New()
	inj.ArmSever(2)
	for i := 1; i <= 2; i++ {
		if f := inj.RPC(); f.Severed {
			t.Fatalf("rpc %d severed before the armed count", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if f := inj.RPC(); !f.Severed {
			t.Fatalf("rpc %d not severed after the armed count", i)
		}
	}
}

// TestRPCDropEvery: the lossy-link rule drops exactly every n-th response.
func TestRPCDropEvery(t *testing.T) {
	inj := New()
	inj.ArmDropEvery(3)
	for i := 1; i <= 9; i++ {
		f := inj.RPC()
		if want := i%3 == 0; f.Drop != want {
			t.Fatalf("rpc %d: drop=%v, want %v", i, f.Drop, want)
		}
	}
}

// TestUnitStartWildcard: a panic point armed at (Any, Any) fires on the
// first unit regardless of its coordinates — and only once.
func TestUnitStartWildcard(t *testing.T) {
	inj := New()
	inj.Arm(KindPanicInUnit, Any, Any)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wildcard panic point did not fire")
			}
		}()
		inj.UnitStart(3, 17)
	}()
	inj.UnitStart(3, 17) // consumed: must not fire again
}
