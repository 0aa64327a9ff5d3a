package mem

import "testing"

func smallHier() *Hierarchy {
	cfg := DefaultHierConfig()
	cfg.L1D = CacheConfig{Sets: 4, Ways: 2, LineSize: 64}
	cfg.MSHRs = 2
	return NewHierarchy(cfg)
}

func TestAccessDataHitMiss(t *testing.T) {
	h := smallHier()
	res := h.AccessData(0, 0x100, DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
	if res.L1Hit || res.L2Hit {
		t.Fatalf("cold access hit: %+v", res)
	}
	wantLat := h.Cfg.LatL1 + h.Cfg.LatL2 + h.Cfg.LatMem
	if res.Latency != wantLat {
		t.Errorf("miss latency = %d, want %d", res.Latency, wantLat)
	}
	if res.FillID == 0 || res.FillAt == 0 {
		t.Errorf("no fill scheduled")
	}
	// The line is not visible until the fill lands.
	if h.L1D.Contains(0x100) {
		t.Errorf("line visible before fill")
	}
	fills := h.Tick(res.FillAt)
	if len(fills) != 1 || fills[0].LineAddr != 0x100 {
		t.Fatalf("fills = %+v", fills)
	}
	res2 := h.AccessData(res.FillAt+1, 0x100, DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
	if !res2.L1Hit || res2.Latency != h.Cfg.LatL1 {
		t.Errorf("post-fill access: %+v", res2)
	}
}

func TestAccessDataL2Hit(t *testing.T) {
	h := smallHier()
	h.L2.Install(0x100)
	res := h.AccessData(0, 0x100, DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
	if res.L1Hit || !res.L2Hit {
		t.Fatalf("expected L2 hit: %+v", res)
	}
	if res.Latency != h.Cfg.LatL1+h.Cfg.LatL2 {
		t.Errorf("L2-hit latency = %d", res.Latency)
	}
}

func TestAccessDataCoalesce(t *testing.T) {
	h := smallHier()
	r1 := h.AccessData(0, 0x100, DataAccessOpts{Sink: SinkNone})
	r2 := h.AccessData(1, 0x110, DataAccessOpts{Sink: SinkNone})
	if !r2.Coalesced {
		t.Fatalf("same-line miss did not coalesce: %+v", r2)
	}
	if r2.FillAt != r1.FillAt {
		t.Errorf("coalesced completion %d != %d", r2.FillAt, r1.FillAt)
	}
	if h.MSHR.FreeCount(2) != 1 {
		t.Errorf("coalescing consumed an extra MSHR")
	}
}

// TestAccessDataCoalesceUpgradesSink: a cacheable request joining an
// invisible (SinkNone) in-flight miss still installs its line at fill time
// — a committed store must not lose its install to a speculative load's
// MSHR entry.
func TestAccessDataCoalesceUpgradesSink(t *testing.T) {
	h := smallHier()
	h.AccessData(0, 0x100, DataAccessOpts{Sink: SinkNone})
	r2 := h.AccessData(1, 0x100, DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
	if !r2.Coalesced || r2.FillID == 0 {
		t.Fatalf("expected coalesced fill with its own install: %+v", r2)
	}
	h.Tick(r2.FillAt)
	if !h.L1D.Contains(0x100) {
		t.Errorf("upgraded coalesced fill did not install")
	}
}

func TestMSHRContentionDelays(t *testing.T) {
	h := smallHier()
	h.AccessData(0, 0x1000, DataAccessOpts{Sink: SinkNone})
	h.AccessData(0, 0x2000, DataAccessOpts{Sink: SinkNone})
	r3 := h.AccessData(0, 0x3000, DataAccessOpts{Sink: SinkNone})
	if r3.MSHRWait == 0 {
		t.Errorf("third miss with 2 MSHRs did not wait: %+v", r3)
	}
}

func TestEvictOnMissFullSet(t *testing.T) {
	h := smallHier()
	// Fill set of 0x000 (stride = sets*line = 256).
	h.L1D.Install(0x000)
	h.L1D.Install(0x400)
	res := h.AccessData(0, 0x800, DataAccessOpts{Sink: SinkNone, EvictOnMissFullSet: true})
	if !res.Evicted {
		t.Fatalf("UV1 eviction did not fire: %+v", res)
	}
	if h.L1D.Contains(res.Victim) {
		t.Errorf("victim still present")
	}
	if h.L1D.Contains(0x800) {
		t.Errorf("UV1 eviction must not install the requesting line")
	}
}

func TestCancelFill(t *testing.T) {
	h := smallHier()
	res := h.AccessData(0, 0x100, DataAccessOpts{Sink: SinkCache})
	h.CancelFill(res.FillID)
	fills := h.Tick(res.FillAt)
	if len(fills) != 0 {
		t.Errorf("cancelled fill applied: %+v", fills)
	}
	if h.L1D.Contains(0x100) {
		t.Errorf("cancelled fill installed")
	}
}

func TestFillToLFB(t *testing.T) {
	h := smallHier()
	res := h.AccessData(0, 0x100, DataAccessOpts{Sink: SinkLFB, Owner: 7})
	h.Tick(res.FillAt)
	if h.L1D.Contains(0x100) {
		t.Errorf("LFB fill installed into L1D")
	}
	if !h.LFBuf.Contains(0x100) {
		t.Errorf("LFB fill not staged")
	}
	if !h.L2.Contains(0x100) {
		t.Errorf("LFB fill skipped L2")
	}
}

func TestAccessInstInstalls(t *testing.T) {
	h := smallHier()
	lat := h.AccessInst(0, 0x400000)
	if lat <= h.Cfg.LatL1 {
		t.Errorf("cold I-fetch latency = %d", lat)
	}
	if !h.L1I.Contains(0x400000) {
		t.Errorf("instruction line not installed")
	}
	if lat2 := h.AccessInst(1, 0x400004); lat2 != h.Cfg.LatL1 {
		t.Errorf("same-line refetch latency = %d", lat2)
	}
}

func TestTranslateData(t *testing.T) {
	h := smallHier()
	lat, hit := h.TranslateData(0, 0x200123, true)
	if hit || lat != h.Cfg.LatTLBWalk {
		t.Errorf("cold translate = %d,%v", lat, hit)
	}
	lat, hit = h.TranslateData(1, 0x200fff, false)
	if !hit || lat != 0 {
		t.Errorf("same-page translate = %d,%v", lat, hit)
	}
	// install=false must not install.
	_, _ = h.TranslateData(2, 0x999000, false)
	if h.DTLB.Contains(0x999) {
		t.Errorf("install=false installed a translation")
	}
}

func TestPortBlockDelaysAccesses(t *testing.T) {
	h := smallHier()
	h.L1D.Install(0x100)
	h.BlockDataPort(50)
	res := h.AccessData(10, 0x100, DataAccessOpts{UpdateLRU: true})
	if res.Latency != 40+h.Cfg.LatL1 {
		t.Errorf("blocked-port latency = %d, want %d", res.Latency, 40+h.Cfg.LatL1)
	}
	h.ClearPortBlock()
	res = h.AccessData(10, 0x100, DataAccessOpts{UpdateLRU: true})
	if res.Latency != h.Cfg.LatL1 {
		t.Errorf("cleared-port latency = %d", res.Latency)
	}
}

func TestConflictAddrMapsToSet(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	for set := 0; set < h.Cfg.L1D.Sets; set += 7 {
		for way := 0; way < h.Cfg.L1D.Ways; way += 3 {
			addr := h.ConflictAddr(set, way)
			if h.L1D.SetIndex(addr) != set {
				t.Fatalf("ConflictAddr(%d,%d) = %#x maps to set %d", set, way, addr, h.L1D.SetIndex(addr))
			}
		}
	}
}

func TestPrimeL1DFillsAllSets(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.PrimeL1D(false)
	cfg := h.Cfg.L1D
	if h.L1D.ValidCount() != cfg.Sets*cfg.Ways {
		t.Errorf("prime filled %d of %d", h.L1D.ValidCount(), cfg.Sets*cfg.Ways)
	}
	if h.DTLB.SnapshotInto(nil) == nil {
		t.Errorf("fill prime left the D-TLB empty; the priming pages must displace it")
	}
	for s := 0; s < cfg.Sets; s += 9 {
		for w := 0; w < cfg.Ways; w++ {
			if h.L2.Contains(h.ConflictAddr(s, w)) {
				t.Fatalf("priming line (%d,%d) left in the L2", s, w)
			}
		}
	}
}

func TestHierarchySaveRestore(t *testing.T) {
	h := smallHier()
	h.L1D.Install(0x100)
	h.DTLB.Install(5)
	st := h.Save()
	h.L1D.Install(0x200)
	h.DTLB.Install(6)
	h.AccessData(0, 0x900, DataAccessOpts{Sink: SinkCache})
	h.Restore(st)
	if h.L1D.Contains(0x200) || !h.L1D.Contains(0x100) {
		t.Errorf("L1D restore wrong")
	}
	if h.DTLB.Contains(6) || !h.DTLB.Contains(5) {
		t.Errorf("TLB restore wrong")
	}
	if h.PendingFills() != 0 {
		t.Errorf("pending fills survived restore")
	}
	if h.MSHR.FreeCount(0) != h.Cfg.MSHRs {
		t.Errorf("MSHRs survived restore")
	}
}

func TestHierConfigValidate(t *testing.T) {
	cfg := DefaultHierConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := cfg
	bad.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("MSHRs=0 accepted")
	}
	bad = cfg
	bad.L1D.Sets = 3
	if err := bad.Validate(); err == nil {
		t.Errorf("non-power-of-two sets accepted")
	}
	bad = cfg
	bad.LatMem = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero latency accepted")
	}
	// Each level alone is valid at another line size; mixed, the fill
	// prime's conflict-line arithmetic would walk the wrong L2 lines.
	for _, lvl := range []*CacheConfig{&bad.L1D, &bad.L1I, &bad.L2} {
		bad = cfg
		*lvl = CacheConfig{Sets: lvl.Sets, Ways: lvl.Ways, LineSize: 32}
		if err := bad.Validate(); err == nil {
			t.Errorf("mixed line sizes accepted: L1D %d, L1I %d, L2 %d",
				bad.L1D.LineSize, bad.L1I.LineSize, bad.L2.LineSize)
		}
	}
}
