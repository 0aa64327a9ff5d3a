package faultinject

import (
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	inj.UnitStart(0, 0) // must not panic
	if inj.CrashAt(0) {
		t.Error("nil injector reported a crash")
	}
	buf := []byte{0xaa}
	inj.MutateBytes(buf)
	if buf[0] != 0xaa {
		t.Error("nil injector mutated bytes")
	}
	if got := inj.Fired(); got != nil {
		t.Errorf("nil injector fired points: %v", got)
	}
}

func TestPanicInUnitFiresOnceAtItsCoordinates(t *testing.T) {
	inj := New()
	inj.Arm(KindPanicInUnit, 1, 3)

	inj.UnitStart(0, 3) // wrong instance
	inj.UnitStart(1, 2) // wrong program

	recovered := func() (v any) {
		defer func() { v = recover() }()
		inj.UnitStart(1, 3)
		return nil
	}()
	p, ok := recovered.(InjectedPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want InjectedPanic", recovered, recovered)
	}
	if p.Inst != 1 || p.Prog != 3 {
		t.Errorf("panic carried unit (%d,%d), want (1,3)", p.Inst, p.Prog)
	}
	inj.UnitStart(1, 3) // charge spent: must not fire again
	if fired := inj.Fired(); len(fired) != 1 || fired[0] != (Point{KindPanicInUnit, 1, 3}) {
		t.Errorf("fired = %v, want exactly the armed point once", fired)
	}
}

func TestHangInUnitBlocks(t *testing.T) {
	inj := New()
	inj.HangDuration = 30 * time.Millisecond
	inj.Arm(KindHangInUnit, 0, 0)
	t0 := time.Now()
	inj.UnitStart(0, 0)
	if d := time.Since(t0); d < inj.HangDuration {
		t.Errorf("armed hang blocked %v, want >= %v", d, inj.HangDuration)
	}
	t0 = time.Now()
	inj.UnitStart(0, 0)
	if d := time.Since(t0); d >= inj.HangDuration {
		t.Errorf("spent hang still blocked %v", d)
	}
}

func TestCrashAtStep(t *testing.T) {
	inj := New()
	inj.Arm(KindCrashAtStep, 2, 0)
	if inj.CrashAt(0) || inj.CrashAt(1) {
		t.Error("crash fired at an unarmed step")
	}
	if !inj.CrashAt(2) {
		t.Error("crash did not fire at the armed step")
	}
	if inj.CrashAt(2) {
		t.Error("crash fired twice on one charge")
	}
}

// TestAppendFaults: log-append faults are addressed by the append's sequence
// number, carry the byte count in B, fire once, and the injector keeps count
// of what it saw either way. A nil injector is a clean append.
func TestAppendFaults(t *testing.T) {
	inj := New()
	inj.Arm(KindCrashInAppend, 3, 17)
	inj.Arm(KindFailAppend, 2, 0)
	want := []AppendFault{{}, {Fail: true}, {Crash: true, Keep: 17}, {}}
	for i, w := range want {
		if got := inj.Append(10 * (i + 1)); got != w {
			t.Errorf("append %d: %+v, want %+v", i+1, got, w)
		}
	}
	if n, bytes := inj.Appended(); n != 4 || bytes != 100 {
		t.Errorf("Appended() = %d, %d; want 4 appends, 100 bytes", n, bytes)
	}
	if got := inj.Fired(); len(got) != 2 || got[0].Kind != KindFailAppend || got[1].Kind != KindCrashInAppend {
		t.Errorf("fired %v", got)
	}
	var none *Injector
	if got := none.Append(5); got != (AppendFault{}) {
		t.Errorf("nil injector: %+v", got)
	}
}

func TestMutateBytesFlipsExactlyTheArmedBit(t *testing.T) {
	inj := New()
	inj.Arm(KindFlipByte, 2, 5)
	inj.Arm(KindFlipByte, 99, 0) // past the end: spent, no effect
	buf := []byte{0, 0, 0, 0}
	inj.MutateBytes(buf)
	want := []byte{0, 0, 1 << 5, 0}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("buf = %v, want %v", buf, want)
		}
	}
	if len(inj.Fired()) != 2 {
		t.Errorf("fired %d points, want 2 (out-of-range offsets are spent)", len(inj.Fired()))
	}
	buf2 := []byte{0, 0, 0, 0}
	inj.MutateBytes(buf2)
	if buf2[2] != 0 {
		t.Error("spent flip point fired again")
	}
}

func TestArmCancelCountsUnitStarts(t *testing.T) {
	inj := New()
	cancelled := 0
	inj.ArmCancel(3, func() { cancelled++ })
	for i := 0; i < 5; i++ {
		inj.UnitStart(0, i)
		want := 0
		if i >= 2 {
			want = 1
		}
		if cancelled != want {
			t.Fatalf("after %d unit starts cancelled=%d, want %d", i+1, cancelled, want)
		}
	}
}
