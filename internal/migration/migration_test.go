package migration

import (
	"testing"

	"pipm/internal/sim"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{Nomad, Memtis, HeMem, OSSkew} {
		if !k.Kernel() {
			t.Errorf("%v should be kernel", k)
		}
	}
	for _, k := range []Kind{PIPM, HWStatic, Native, LocalOnly} {
		if k.Kernel() {
			t.Errorf("%v should not be kernel", k)
		}
	}
}

func TestPageTable(t *testing.T) {
	pt := NewPageTable(10, 4)
	if pt.Pages() != 10 {
		t.Fatalf("Pages = %d", pt.Pages())
	}
	for p := int64(0); p < 10; p++ {
		if pt.Owner(p) != ToCXL {
			t.Fatalf("page %d not initially in CXL", p)
		}
	}
	pt.Set(3, 2)
	pt.Set(4, 2)
	if pt.Owner(3) != 2 || pt.Resident(2) != 2 {
		t.Fatalf("Owner/Resident = %d/%d", pt.Owner(3), pt.Resident(2))
	}
	pt.Set(3, 1) // move between hosts
	if pt.Resident(2) != 1 || pt.Resident(1) != 1 {
		t.Fatalf("residency after move = %d/%d", pt.Resident(2), pt.Resident(1))
	}
	pt.Set(3, ToCXL)
	if pt.Resident(1) != 0 || pt.Owner(3) != ToCXL {
		t.Fatal("demotion did not clear residency")
	}
	pt.Set(4, 2) // idempotent set
	if pt.Resident(2) != 1 {
		t.Fatal("idempotent Set changed residency")
	}
}

func TestPageCounts(t *testing.T) {
	pc := newPageCounts(4, 3)
	pc.record(0, 1)
	pc.record(0, 1)
	pc.record(2, 1)
	if pc.total(1) != 3 {
		t.Fatalf("total = %d", pc.total(1))
	}
	h, c := pc.top(1)
	if h != 0 || c != 2 {
		t.Fatalf("top = %d,%d", h, c)
	}
	lh, margin := pc.lead(1)
	if lh != 0 || margin != 1 {
		t.Fatalf("lead = %d,%d", lh, margin)
	}
	pc.halve()
	if pc.total(1) != 1 { // 2→1, 1→0, floor semantics
		t.Fatalf("total after halve = %d", pc.total(1))
	}
	pc.clear()
	if pc.total(1) != 0 {
		t.Fatal("clear failed")
	}
	if pc.pages() != 4 {
		t.Fatalf("pages = %d", pc.pages())
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for x, want := range cases {
		if got := log2u64(x); got != want {
			t.Errorf("log2(%d) = %d, want %d", x, got, want)
		}
	}
}

// applyOps mimics the machine's application of policy decisions.
func applyOps(pt *PageTable, ops []Op) {
	for _, op := range ops {
		pt.Set(op.Page, op.To)
	}
}

func TestNomadPromotesOnRepeatedTouch(t *testing.T) {
	p := NewNomad(8, 2)
	pt := NewPageTable(8, 2)
	// Epoch 1: host 0 touches page 3 → no promotion yet (one epoch).
	p.RecordAccess(0, 3, false)
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(3) != ToCXL {
		t.Fatal("promoted after a single epoch touch")
	}
	// Epoch 2: touched again → promote.
	p.RecordAccess(0, 3, false)
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(3) != 0 {
		t.Fatalf("page 3 owner = %d, want 0", pt.Owner(3))
	}
}

func TestNomadDemotesIdlePages(t *testing.T) {
	p := NewNomad(8, 2)
	pt := NewPageTable(8, 2)
	pt.Set(5, 1)
	// 4 idle epochs → demote.
	for i := 0; i < 3; i++ {
		applyOps(pt, p.Tick(pt, 100))
		if pt.Owner(5) != 1 {
			t.Fatalf("demoted too early at epoch %d", i)
		}
	}
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(5) != ToCXL {
		t.Fatal("idle page not demoted after 4 epochs")
	}
}

func TestNomadIgnoresSharedHarm(t *testing.T) {
	// The defining failure mode: a page touched by both hosts still gets
	// promoted to the busier one — recency policies don't see the conflict.
	p := NewNomad(4, 2)
	pt := NewPageTable(4, 2)
	for e := 0; e < 2; e++ {
		for i := 0; i < 6; i++ {
			p.RecordAccess(0, 1, false)
		}
		for i := 0; i < 5; i++ {
			p.RecordAccess(1, 1, false)
		}
		applyOps(pt, p.Tick(pt, 100))
	}
	if pt.Owner(1) != 0 {
		t.Fatalf("shared-hot page owner = %d; Nomad should still migrate it (to host 0)", pt.Owner(1))
	}
}

func TestNomadRespectsBudget(t *testing.T) {
	p := NewNomad(8, 2)
	pt := NewPageTable(8, 2)
	for e := 0; e < 2; e++ {
		for page := int64(0); page < 8; page++ {
			p.RecordAccess(0, page, false)
		}
		applyOps(pt, p.Tick(pt, 3))
	}
	if pt.Resident(0) > 3 {
		t.Fatalf("resident = %d exceeds budget 3", pt.Resident(0))
	}
}

func TestMemtisPromotesHotDemotesCold(t *testing.T) {
	p := NewMemtis(16, 2)
	pt := NewPageTable(16, 2)
	// Page 0 very hot from host 0, page 1 barely touched.
	for i := 0; i < 64; i++ {
		p.RecordAccess(0, 0, false)
	}
	p.RecordAccess(1, 1, false)
	applyOps(pt, p.Tick(pt, 4))
	if pt.Owner(0) != 0 {
		t.Fatalf("hot page owner = %d, want 0", pt.Owner(0))
	}
	// Stop touching page 0: counts decay. Under memory pressure (budget 1,
	// host 0 at capacity) the cold page demotes; without pressure Memtis
	// leaves residents alone.
	demoted := false
	for e := 0; e < 10 && !demoted; e++ {
		// Keep other pages hot so the threshold stays above zero.
		for i := 0; i < 64; i++ {
			p.RecordAccess(1, 5, false)
		}
		applyOps(pt, p.Tick(pt, 1))
		demoted = pt.Owner(0) == ToCXL
	}
	if !demoted {
		t.Fatal("cold page never demoted under pressure")
	}
}

func TestHeMemThresholdAndCooling(t *testing.T) {
	p := NewHeMem(8, 2)
	pt := NewPageTable(8, 2)
	// 7 accesses: below threshold 8.
	for i := 0; i < 7; i++ {
		p.RecordAccess(1, 2, false)
	}
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(2) != ToCXL {
		t.Fatal("promoted below threshold")
	}
	// One more access crosses 8 (counts persist between epochs until cooling).
	p.RecordAccess(1, 2, false)
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(2) != 1 {
		t.Fatalf("owner = %d, want 1", pt.Owner(2))
	}
	// Cooling (every 2 epochs) eventually zeroes the count → demote.
	demoted := false
	for e := 0; e < 12 && !demoted; e++ {
		applyOps(pt, p.Tick(pt, 100))
		demoted = pt.Owner(2) == ToCXL
	}
	if !demoted {
		t.Fatal("HeMem never demoted a cooled page")
	}
}

func TestOSSkewSuppressesContestedMigration(t *testing.T) {
	p := NewOSSkew(4, 2, 8)
	pt := NewPageTable(4, 2)
	// Contested page: 10 vs 9 accesses — margin 1 < 8 → no migration,
	// exactly where Nomad above did migrate.
	for e := 0; e < 5; e++ {
		for i := 0; i < 10; i++ {
			p.RecordAccess(0, 1, false)
		}
		for i := 0; i < 9; i++ {
			p.RecordAccess(1, 1, false)
		}
		applyOps(pt, p.Tick(pt, 100))
	}
	if pt.Owner(1) != ToCXL {
		t.Fatal("OS-skew migrated a contested page")
	}
	// Exclusive page: margin grows past threshold → promote.
	for i := 0; i < 20; i++ {
		p.RecordAccess(1, 2, false)
	}
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(2) != 1 {
		t.Fatalf("exclusive page owner = %d, want 1", pt.Owner(2))
	}
}

func TestOSSkewDemotesWhenVoteFlips(t *testing.T) {
	p := NewOSSkew(4, 2, 8)
	pt := NewPageTable(4, 2)
	for i := 0; i < 20; i++ {
		p.RecordAccess(0, 1, false)
	}
	applyOps(pt, p.Tick(pt, 100))
	if pt.Owner(1) != 0 {
		t.Fatal("setup promotion failed")
	}
	// Host 1 starts hammering the page: vote flips, page returns to CXL.
	demoted := false
	for e := 0; e < 10 && !demoted; e++ {
		for i := 0; i < 30; i++ {
			p.RecordAccess(1, 1, false)
		}
		applyOps(pt, p.Tick(pt, 100))
		demoted = pt.Owner(1) == ToCXL
	}
	if !demoted {
		t.Fatal("OS-skew never demoted after the vote flipped")
	}
}

func TestPolicyNames(t *testing.T) {
	if NewNomad(1, 1).Name() != "nomad" || NewMemtis(1, 1).Name() != "memtis" ||
		NewHeMem(1, 1).Name() != "hemem" || NewOSSkew(1, 1, 8).Name() != "os-skew" {
		t.Fatal("policy names mismatch")
	}
}

func TestHarmfulLedger(t *testing.T) {
	// local=40ns, CXL=180ns, inter=400ns → benefit/access = 140, harm = 220.
	l := NewHarmfulLedger(40*sim.Nanosecond, 180*sim.Nanosecond, 400*sim.Nanosecond)
	// Migration 1: owner-dominated → benign.
	l.OnMigration(1, 0)
	for i := 0; i < 100; i++ {
		l.OnAccess(1, 0)
	}
	for i := 0; i < 10; i++ {
		l.OnAccess(1, 3)
	}
	l.OnDemotion(1)
	// Migration 2: remote-dominated → harmful (harm 50·220 > benefit 10·140).
	l.OnMigration(2, 0)
	for i := 0; i < 10; i++ {
		l.OnAccess(2, 0)
	}
	for i := 0; i < 50; i++ {
		l.OnAccess(2, 1)
	}
	l.OnDemotion(2)
	if l.Total() != 2 || l.Harmful() != 1 {
		t.Fatalf("total/harmful = %d/%d, want 2/1", l.Total(), l.Harmful())
	}
	if l.HarmfulFraction() != 0.5 {
		t.Fatalf("fraction = %v", l.HarmfulFraction())
	}
}

func TestHarmfulLedgerFinishAndRemigration(t *testing.T) {
	l := NewHarmfulLedger(40*sim.Nanosecond, 180*sim.Nanosecond, 400*sim.Nanosecond)
	l.OnMigration(7, 0)
	l.OnAccess(7, 2) // harmful so far
	// Re-migration closes the first window and opens a second.
	l.OnMigration(7, 2)
	l.OnAccess(7, 2) // benign for new owner
	l.Finish()
	if l.Total() != 2 {
		t.Fatalf("Total = %d, want 2", l.Total())
	}
	if l.Harmful() != 1 {
		t.Fatalf("Harmful = %d, want 1", l.Harmful())
	}
	// Accesses to unscored pages are no-ops.
	l.OnAccess(99, 1)
	l.OnDemotion(99)
	if l.HarmfulFraction() != 0.5 {
		t.Fatalf("fraction = %v", l.HarmfulFraction())
	}
	if NewHarmfulLedger(1, 2, 3).HarmfulFraction() != 0 {
		t.Fatal("empty ledger fraction should be 0")
	}
}
