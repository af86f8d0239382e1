package daxfs

import (
	"testing"

	"pipm/internal/config"
	"pipm/internal/trace"
)

func testMap(t *testing.T) config.AddressMap {
	t.Helper()
	c := config.Default()
	c.SharedBytes = 4 << 20
	return config.NewAddressMap(&c)
}

func drain(t *testing.T, r trace.Reader, n int64) []trace.Record {
	t.Helper()
	var recs []trace.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if int64(len(recs)) != n {
		t.Fatalf("yielded %d records, want %d", len(recs), n)
	}
	return recs
}

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if !Default().Enabled() {
		t.Fatal("Default not Enabled")
	}
	if (Params{}).Enabled() {
		t.Fatal("zero Params Enabled")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	mut := func(f func(*Params)) Params {
		p := Default()
		f(&p)
		return p
	}
	bad := map[string]Params{
		"meta frac zero": mut(func(p *Params) { p.MetaFrac = 0 }),
		"meta frac one":  mut(func(p *Params) { p.MetaFrac = 1 }),
		"hot lines":      mut(func(p *Params) { p.HotLines = 0 }),
		"hot lines over": mut(func(p *Params) { p.HotLines = config.LinesPerPage + 1 }),
		"file zipf":      mut(func(p *Params) { p.FileZipfS = -1 }),
		"own frac":       mut(func(p *Params) { p.OwnFrac = 1.5 }),
		"extent pages":   mut(func(p *Params) { p.ExtentPages = 0 }),
		"mix over one":   mut(func(p *Params) { p.LookupFrac = 0.9; p.ScanFrac = 0.2 }),
		"negative mix":   mut(func(p *Params) { p.LookupFrac = -0.1 }),
		"scan lines":     mut(func(p *Params) { p.ScanLines = 0 }),
		"append lines":   mut(func(p *Params) { p.AppendLines = 0 }),
		"cas fanout":     mut(func(p *Params) { p.CASFanout = 0 }),
		"gap mean":       mut(func(p *Params) { p.GapMean = -1 }),
	}
	for name, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Append knobs are free when the mix has no appends.
	ro := Default()
	ro.LookupFrac, ro.ScanFrac = 0.7, 0.3
	ro.AppendLines, ro.CASFanout = 0, 0
	if err := ro.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderBudgetAndAddressRange(t *testing.T) {
	am := testMap(t)
	recs := drain(t, New(Default(), am, 4, 2, 1, 30000, 7), 30000)
	for _, rec := range recs {
		if kind, _ := am.Region(rec.Addr); kind != config.RegionShared {
			t.Fatalf("address %#x outside shared heap", uint64(rec.Addr))
		}
	}
}

func TestReaderDeterminism(t *testing.T) {
	am := testMap(t)
	a := drain(t, New(Default(), am, 4, 1, 0, 8000, 3), 8000)
	b := drain(t, New(Default(), am, 4, 1, 0, 8000, 3), 8000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestReaderPrefixMonotone(t *testing.T) {
	am := testMap(t)
	short := drain(t, New(Default(), am, 4, 0, 0, 5000, 11), 5000)
	long := drain(t, New(Default(), am, 4, 0, 0, 10000, 11), 10000)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix diverges at %d", i)
		}
	}
}

// LookupFrac+ScanFrac = 1 is the degenerate read-only limit.
func TestZeroAppendMixIsReadOnly(t *testing.T) {
	am := testMap(t)
	p := Default()
	p.LookupFrac, p.ScanFrac = 0.7, 0.3
	for _, rec := range drain(t, New(p, am, 4, 1, 0, 30000, 5), 30000) {
		if rec.Write {
			t.Fatal("read-only mix wrote")
		}
	}
}

// The hot metadata lines must see CAS writes from every host — the genuine
// all-host contention the workload exists to model.
func TestHotLinesContendedFromAllHosts(t *testing.T) {
	am := testMap(t)
	p := Default()
	hotEnd := am.SharedAddr(0) + config.Addr(p.HotLines)*config.LineBytes
	for host := 0; host < 4; host++ {
		hotWrites := 0
		for _, rec := range drain(t, New(p, am, 4, host, 0, 30000, 2), 30000) {
			if rec.Write && rec.Addr < hotEnd {
				hotWrites++
			}
		}
		if hotWrites == 0 {
			t.Fatalf("host %d never CASed a hot line", host)
		}
	}
}

func TestMixShape(t *testing.T) {
	am := testMap(t)
	p := Default()
	c := trace.Profile(4, 2, MetaBoundary(p, am, 4),
		func(h, core int) trace.Reader { return New(p, am, 4, h, core, 20000, 1) })
	if c.Records != 4*2*20000 {
		t.Fatalf("Records = %d", c.Records)
	}
	if c.BelowReads == 0 || c.BelowWrites == 0 || c.AboveReads == 0 || c.AboveWrites == 0 {
		t.Fatalf("missing traffic class: %+v", c)
	}
	// Data is cold relative to the metadata index: scans stream it but the
	// hot CAS/lookup traffic concentrates on metadata lines.
	if c.BelowReads < c.AboveWrites {
		t.Fatalf("metadata should dominate over append payload: %+v", c)
	}
	if c.Instructions < c.Records {
		t.Fatalf("Instructions %d < Records %d", c.Instructions, c.Records)
	}
}

// Own-subtree affinity: most extent traffic of host h lands on files with
// home h (file mod hosts == h).
func TestOwnSubtreeAffinity(t *testing.T) {
	am := testMap(t)
	p := Default()
	p.FileZipfS = 0 // uniform, so the affinity signal is pure OwnFrac
	l := newLayout(p, am, 4)
	metaEnd := am.SharedAddr(0) + config.Addr(l.metaPages)*config.PageBytes
	own, total := 0, 0
	for _, rec := range drain(t, New(p, am, 4, 1, 0, 60000, 9), 60000) {
		if rec.Addr < metaEnd {
			continue
		}
		page := int64((rec.Addr - am.SharedAddr(0)) / config.PageBytes)
		f := (page - l.metaPages) / l.extentPages
		total++
		if f%4 == 1 {
			own++
		}
	}
	if frac := float64(own) / float64(total); frac < 0.7 {
		t.Fatalf("own-subtree extent share = %.2f, want ≥ 0.7 (OwnFrac 0.9)", frac)
	}
}

func TestTinyHeapDoesNotPanic(t *testing.T) {
	c := config.Default()
	c.SharedBytes = config.PageBytes
	am := config.NewAddressMap(&c)
	recs := drain(t, New(Default(), am, 4, 3, 0, 2000, 1), 2000)
	for _, rec := range recs {
		if kind, _ := am.Region(rec.Addr); kind != config.RegionShared {
			t.Fatalf("address %#x outside shared heap", uint64(rec.Addr))
		}
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	am := testMap(t)
	for name, fn := range map[string]func(){
		"invalid params": func() { New(Params{}, am, 4, 0, 0, 10, 1) },
		"bad host":       func() { New(Default(), am, 4, 4, 0, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
