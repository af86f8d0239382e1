package llmserve

import (
	"math"
	"strings"
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
		"weight frac zero": mut(func(p *Params) { p.WeightFrac = 0 }),
		"weight frac over": mut(func(p *Params) { p.WeightFrac = 1.5 }),
		"shard frac":       mut(func(p *Params) { p.ShardFrac = -0.1 }),
		"weight zipf":      mut(func(p *Params) { p.WeightZipfS = -1 }),
		"slot pages":       mut(func(p *Params) { p.SlotPages = 0 }),
		"arrival mean":     mut(func(p *Params) { p.ArrivalMean = -1 }),
		"burst mean":       mut(func(p *Params) { p.BurstMean = 0 }),
		"prefill":          mut(func(p *Params) { p.PrefillTokens = -1 }),
		"decode":           mut(func(p *Params) { p.DecodeTokens = 0 }),
		"session zipf":     mut(func(p *Params) { p.SessionZipfS = -1 }),
		"weight reads":     mut(func(p *Params) { p.WeightReads = 0 }),
		"kv window":        mut(func(p *Params) { p.KVReadWindow = -1 }),
		"migrate frac":     mut(func(p *Params) { p.MigrateFrac = 2 }),
		"max active":       mut(func(p *Params) { p.MaxActive = 0 }),
		"gap mean":         mut(func(p *Params) { p.GapMean = -1 }),
	}
	for name, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A non-finite skew is rejected by name: +Inf makes the Zipf draw
	// reject forever and NaN would degrade to uniform.
	for _, field := range []string{"WeightZipfS", "SessionZipfS"} {
		for _, s := range []float64{math.Inf(1), math.NaN()} {
			p := Default()
			if field == "WeightZipfS" {
				p.WeightZipfS = s
			} else {
				p.SessionZipfS = s
			}
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %g: Validate() = %v, want an error naming %s", field, s, err, field)
			}
		}
	}
	// Arrival-gated knobs are free when arrivals are off.
	idle := Default()
	idle.ArrivalMean = 0
	idle.BurstMean, idle.DecodeTokens, idle.MaxActive = 0, 0, 0
	if err := idle.Validate(); err != nil {
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

// Prefix monotonicity: a longer budget extends the trace without rewriting
// the prefix — the property cluster-scale record scaling depends on.
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

// The zero-arrival trace is the degenerate read-only limit: no writes, all
// accesses below the weight boundary, confined to the host's own shard.
func TestIdleScanIsReadOnlyOwnShard(t *testing.T) {
	am := testMap(t)
	p := Default()
	p.ArrivalMean = 0
	boundary := WeightBoundary(p, am, 4)
	l := newLayout(p, am, 4)
	for host := 0; host < 4; host++ {
		lo := am.SharedAddr(0) + config.Addr(l.shardStart(host))*config.PageBytes
		hi := lo + config.Addr(l.shardPages)*config.PageBytes
		for _, rec := range drain(t, New(p, am, 4, host, 0, 20000, 5), 20000) {
			if rec.Write {
				t.Fatal("idle scan wrote")
			}
			if rec.Addr >= boundary {
				t.Fatalf("idle scan read past weight boundary: %#x", uint64(rec.Addr))
			}
			if rec.Addr < lo || rec.Addr >= hi {
				t.Fatalf("host %d idle scan left its shard: %#x not in [%#x, %#x)",
					host, uint64(rec.Addr), uint64(lo), uint64(hi))
			}
		}
	}
}

func TestServingMixShape(t *testing.T) {
	am := testMap(t)
	p := Default()
	c := trace.Profile(4, 2, WeightBoundary(p, am, 4),
		func(h, core int) trace.Reader { return New(p, am, 4, h, core, 20000, 1) })
	if c.Records != 4*2*20000 {
		t.Fatalf("Records = %d", c.Records)
	}
	if c.BelowWrites != 0 {
		t.Fatalf("weights are read-only, got %d writes", c.BelowWrites)
	}
	if c.BelowReads == 0 || c.AboveReads == 0 || c.AboveWrites == 0 {
		t.Fatalf("missing traffic class: %+v", c)
	}
	if c.AboveWrites <= c.BelowWrites {
		t.Fatal("KV region should take all the writes")
	}
	if c.Instructions < c.Records {
		t.Fatalf("Instructions %d < Records %d", c.Instructions, c.Records)
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
