package workload

import (
	"testing"

	"pipm/internal/config"
	"pipm/internal/trace"
)

func testAM() (config.AddressMap, config.Config) {
	c := config.Default()
	c.SharedBytes = 4 << 20 // 1024 pages
	return config.NewAddressMap(&c), c
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 13 {
		t.Fatalf("catalog has %d workloads, Table 1 lists 13", len(cat))
	}
	suites := map[string]int{}
	for _, p := range cat {
		suites[p.Suite]++
		if p.Footprint <= 0 {
			t.Errorf("%s: no footprint", p.Name)
		}
		if p.SharedFrac <= 0 || p.SharedFrac > 1 {
			t.Errorf("%s: SharedFrac %v", p.Name, p.SharedFrac)
		}
		if p.OwnFrac+p.SpillFrac > 1 {
			t.Errorf("%s: region fractions exceed 1", p.Name)
		}
	}
	if suites["GAPBS"] != 6 || suites["XSBench"] != 1 || suites["PARSEC"] != 4 || suites["Silo"] != 2 {
		t.Fatalf("suite split = %v", suites)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("pr")
	if err != nil || p.Name != "pr" {
		t.Fatalf("ByName(pr) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted garbage")
	}
	if len(Names()) != 15 {
		t.Fatal("Names() length mismatch")
	}
	if p, err := ByName("daxfs"); err != nil || !p.FS.Enabled() {
		t.Fatalf("ByName(daxfs) = %+v, %v", p, err)
	}
}

func TestReaderYieldsExactlyNRecords(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("sssp")
	r := p.NewReader(am, 4, 0, 0, 5000, 42)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n != 5000 {
		t.Fatalf("yielded %d records, want 5000", n)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader yielded past its budget")
	}
}

func TestReaderDeterminism(t *testing.T) {
	am, _ := testAM()
	for _, name := range []string{"pr", "ycsb", "canneal"} {
		p, _ := ByName(name)
		collect := func(seed int64) []trace.Record {
			r := p.NewReader(am, 4, 1, 2, 2000, seed)
			var recs []trace.Record
			for {
				rec, ok := r.Next()
				if !ok {
					break
				}
				recs = append(recs, rec)
			}
			return recs
		}
		a, b := collect(7), collect(7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: records diverge at %d", name, i)
			}
		}
		c := collect(8)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}

func TestDistinctCoresGetDistinctStreams(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("tpcc")
	read := func(h, c int) trace.Record {
		r := p.NewReader(am, 4, h, c, 1, 1)
		rec, _ := r.Next()
		return rec
	}
	if read(0, 0) == read(0, 1) && read(1, 0) == read(0, 0) {
		t.Fatal("streams not differentiated by host/core")
	}
}

func TestAllAddressesValid(t *testing.T) {
	am, _ := testAM()
	for _, p := range Catalog() {
		r := p.NewReader(am, 4, 3, 1, 3000, 99)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			kind, owner := am.Region(rec.Addr)
			switch kind {
			case config.RegionShared:
			case config.RegionPrivate:
				if owner != 3 {
					t.Fatalf("%s: private ref to host %d's window from host 3", p.Name, owner)
				}
			default:
				t.Fatalf("%s: invalid address %#x", p.Name, uint64(rec.Addr))
			}
		}
	}
}

// regionShares measures where a host's shared references land.
func regionShares(t *testing.T, p Params, am config.AddressMap, host int) (own, spill, other, shared, writes float64) {
	t.Helper()
	r := p.NewReader(am, 4, host, 0, 60000, 5)
	partPages := am.SharedPages() / 4
	var nShared, nOwn, nSpill, nOther, nTotal, nWrites int
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		nTotal++
		if rec.Write {
			nWrites++
		}
		kind, _ := am.Region(rec.Addr)
		if kind != config.RegionShared {
			continue
		}
		nShared++
		page := am.SharedPageIndex(rec.Addr)
		switch page / partPages {
		case int64(host):
			nOwn++
		case int64((host + 1) % 4):
			nSpill++
		default:
			nOther++
		}
	}
	f := func(a int) float64 { return float64(a) / float64(nShared) }
	return f(nOwn), f(nSpill), f(nOther), float64(nShared) / float64(nTotal), float64(nWrites) / float64(nTotal)
}

func TestGraphWorkloadHasStrongOwnLocality(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("pr")
	own, _, _, shared, _ := regionShares(t, p, am, 2)
	if own < 0.7 {
		t.Fatalf("pr own-partition share = %.2f, want ≥ 0.7 (strong locality)", own)
	}
	if shared < 0.8 {
		t.Fatalf("pr shared fraction = %.2f, want ≈ 0.9", shared)
	}
}

func TestDatabaseWorkloadIsScattered(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("ycsb")
	own, _, other, _, _ := regionShares(t, p, am, 0)
	// YCSB's zipf over the whole table means plenty of cross-partition
	// traffic. (Global picks can still land in one's own quarter, so "own"
	// includes ~25% of the global share.)
	if other < 0.4 {
		t.Fatalf("ycsb other-partition share = %.2f, want ≥ 0.4 (scattered)", other)
	}
	if own > 0.6 {
		t.Fatalf("ycsb own share = %.2f, too partitioned for a database", own)
	}
}

func TestWriteFractionRoughlyMatches(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("tpcc")
	_, _, _, _, writes := regionShares(t, p, am, 1)
	if writes < 0.25 || writes > 0.45 {
		t.Fatalf("tpcc write fraction = %.2f, want ≈ 0.35", writes)
	}
}

func TestZipfSkewConcentratesPages(t *testing.T) {
	am, _ := testAM()
	skewed, _ := ByName("ycsb")     // zipf 1.4
	uniform, _ := ByName("xsbench") // zipf 0
	top10 := func(p Params) float64 {
		r := p.NewReader(am, 4, 0, 0, 40000, 3)
		counts := map[int64]int{}
		total := 0
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if kind, _ := am.Region(rec.Addr); kind != config.RegionShared {
				continue
			}
			counts[am.SharedPageIndex(rec.Addr)]++
			total++
		}
		// Share of the 10 hottest pages.
		best := make([]int, 0, len(counts))
		for _, c := range counts {
			best = append(best, c)
		}
		// selection of top 10 without sort package: simple partial pass
		sum := 0
		for i := 0; i < 10; i++ {
			maxIdx, maxV := -1, -1
			for j, v := range best {
				if v > maxV {
					maxIdx, maxV = j, v
				}
			}
			if maxIdx < 0 {
				break
			}
			sum += maxV
			best[maxIdx] = -1
		}
		return float64(sum) / float64(total)
	}
	if s, u := top10(skewed), top10(uniform); s <= u*2 {
		t.Fatalf("zipf skew not visible: top-10 share %.3f (ycsb) vs %.3f (xsbench)", s, u)
	}
}

func TestRunLengthsCreateSpatialLocality(t *testing.T) {
	am, _ := testAM()
	stream, _ := ByName("streamcluster") // run 64
	pointer, _ := ByName("canneal")      // run 1
	seqFrac := func(p Params) float64 {
		r := p.NewReader(am, 4, 0, 0, 30000, 9)
		var prev config.Addr
		seq, total := 0, 0
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if prev != 0 && rec.Addr == prev+config.LineBytes {
				seq++
			}
			total++
			prev = rec.Addr
		}
		return float64(seq) / float64(total)
	}
	s, c := seqFrac(stream), seqFrac(pointer)
	if s <= c*3 || s < 0.5 {
		t.Fatalf("sequentiality: streamcluster %.2f vs canneal %.2f", s, c)
	}
}

func TestGapMeanRoughlyHonoured(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("xsbench") // gap 40
	r := p.NewReader(am, 4, 0, 0, 30000, 11)
	var sum, n int64
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		sum += int64(rec.Gap)
		n++
	}
	mean := float64(sum) / float64(n)
	if mean < float64(p.GapMean)-5 || mean > float64(p.GapMean)+5 {
		t.Fatalf("gap mean = %.1f, want ≈ %d", mean, p.GapMean)
	}
}

func TestNewReaderPanicsOnBadHost(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("pr")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range host")
		}
	}()
	p.NewReader(am, 4, 4, 0, 10, 1)
}

func TestRotationShiftsAffinity(t *testing.T) {
	am, _ := testAM()
	p, _ := ByName("pr")
	p.RotateEvery = 10000
	r := p.NewReader(am, 4, 0, 0, 20000, 3)
	partPages := am.SharedPages() / 4
	// First phase: host 0's own partition dominates. Second phase: host 1's.
	count := func(n int) [4]int {
		var c [4]int
		for i := 0; i < n; i++ {
			rec, ok := r.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			if kind, _ := am.Region(rec.Addr); kind != config.RegionShared {
				continue
			}
			c[am.SharedPageIndex(rec.Addr)/partPages]++
		}
		return c
	}
	phase1 := count(10000)
	phase2 := count(10000)
	if !(phase1[0] > phase1[1] && phase1[0] > phase1[2]) {
		t.Fatalf("phase 1 not host-0 dominated: %v", phase1)
	}
	if !(phase2[1] > phase2[0] && phase2[1] > phase2[2]) {
		t.Fatalf("phase 2 not host-1 dominated: %v", phase2)
	}
}

func TestNoRotationByDefault(t *testing.T) {
	for _, p := range Catalog() {
		if p.RotateEvery != 0 {
			t.Fatalf("%s has rotation in the calibrated catalog", p.Name)
		}
	}
}

func TestProductionFamily(t *testing.T) {
	prod := Production()
	if len(prod) != 2 {
		t.Fatalf("production family has %d workloads, want 2", len(prod))
	}
	names := map[string]bool{}
	for _, p := range prod {
		names[p.Name] = true
		if p.Suite != "Serve" {
			t.Errorf("%s: suite %q, want Serve", p.Name, p.Suite)
		}
		if p.Footprint <= 0 {
			t.Errorf("%s: no footprint", p.Name)
		}
		if !p.Mechanistic() {
			t.Errorf("%s: not mechanistic", p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if !names["llmserve"] || !names["daxfs"] {
		t.Fatalf("production names = %v", names)
	}
	if len(All()) != len(Catalog())+2 {
		t.Fatalf("All() = %d entries, want catalog+2", len(All()))
	}
	if len(Names()) != 15 {
		t.Fatalf("Names() = %d, want 15", len(Names()))
	}
	for _, p := range Catalog() {
		if p.Mechanistic() {
			t.Errorf("%s: catalog preset claims mechanistic", p.Name)
		}
	}
}

func TestValidateRejectsBadMechanistic(t *testing.T) {
	serve, _ := ByName("llmserve")
	fs, _ := ByName("daxfs")
	both := serve
	both.FS = fs.FS
	if both.Validate() == nil {
		t.Fatal("Serve+FS accepted")
	}
	bad := serve
	bad.Serve.WeightFrac = -1
	if bad.Validate() == nil {
		t.Fatal("invalid Serve params accepted")
	}
	badFS := fs
	badFS.FS.HotLines = -1
	if badFS.Validate() == nil {
		t.Fatal("invalid FS params accepted")
	}
	if pr, _ := ByName("pr"); pr.Validate() != nil {
		t.Fatal("statistical preset rejected")
	}
}

func TestMechanisticDispatchAndDeterminism(t *testing.T) {
	am, _ := testAM()
	for _, name := range []string{"llmserve", "daxfs"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(seed int64) []trace.Record {
			r := p.NewReader(am, 4, 1, 2, 4000, seed)
			var recs []trace.Record
			for {
				rec, ok := r.Next()
				if !ok {
					break
				}
				recs = append(recs, rec)
			}
			return recs
		}
		a, b := collect(7), collect(7)
		if len(a) != 4000 {
			t.Fatalf("%s: yielded %d records", name, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: records diverge at %d", name, i)
			}
			if kind, _ := am.Region(a[i].Addr); kind != config.RegionShared {
				t.Fatalf("%s: mechanistic generators emit shared traffic only, got %#x", name, uint64(a[i].Addr))
			}
		}
		c := collect(8)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestEveryPresetDrainsAtSmallestHeap drains every registered preset on the
// smallest heap config.Validate accepts, one page per host: every host's
// partition is then a single page, and every address must stay mapped.
func TestEveryPresetDrainsAtSmallestHeap(t *testing.T) {
	for _, hosts := range []int{1, 2, 3, 4, 16, 64} {
		c := config.Default()
		c.Hosts = hosts
		c.SharedBytes = int64(hosts) * config.PageBytes
		if err := c.Validate(); err != nil {
			t.Fatalf("hosts=%d: smallest heap rejected: %v", hosts, err)
		}
		am := config.NewAddressMap(&c)
		for _, p := range All() {
			for host := 0; host < hosts; host++ {
				r := p.NewReader(am, hosts, host, 0, 400, 5)
				for {
					rec, ok := r.Next()
					if !ok {
						break
					}
					if kind, owner := am.Region(rec.Addr); kind == config.RegionInvalid ||
						kind == config.RegionPrivate && owner != host {
						t.Fatalf("%s hosts=%d host=%d: address %#x is %v/%d",
							p.Name, hosts, host, uint64(rec.Addr), kind, owner)
					}
				}
			}
		}
	}
}

// BenchmarkNewReader measures one generator construction per op (seeding,
// layout, zipf and threshold set-up) for every preset at 4 hosts.
func BenchmarkNewReader(b *testing.B) {
	am, _ := testAM()
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkReader = p.NewReader(am, 4, i%4, 0, 1, 1)
			}
		})
	}
}

// BenchmarkNext measures one record per op from a host-3 generator at 4
// hosts on the quick sweep's 4 MiB heap. The hot path must not allocate.
func BenchmarkNext(b *testing.B) {
	am, _ := testAM()
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			r := p.NewReader(am, 4, 3, 0, int64(b.N), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRecord, _ = r.Next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
		})
	}
}

var (
	sinkReader trace.Reader
	sinkRecord trace.Record
)
