package harness

import (
	"testing"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/daxfs"
	"pipm/internal/llmserve"
	"pipm/internal/migration"
	"pipm/internal/workload"
)

// The production-generator fuzz targets mirror FuzzAddressMap: arbitrary
// knob vectors map into Params (deliberately spanning both valid and invalid
// combinations), Validate gates them, and every accepted set must survive a
// short 2-host simulation under the quantum auditor with no panic and no
// invariant violation. The mappings bound the work-per-operation knobs so a
// valid set is always affordable; validity itself is the generator's
// contract, not the mapping's.

// fuzzHeap picks one of four page-aligned heap sizes, including the
// smallest pool config.Validate accepts (one page per host), which forces
// the layout fallbacks.
func fuzzHeap(sel uint8, hosts int) int64 {
	switch sel % 4 {
	case 0:
		return int64(hosts) * config.PageBytes
	case 1:
		return 16 * config.PageBytes
	case 2:
		return 256 * config.PageBytes
	default:
		return 1024 * config.PageBytes
	}
}

// fuzzRun executes the gated workload on a 2-host machine under the quantum
// auditor and fails the fuzz run on any error or violation.
func fuzzRun(t *testing.T, wl workload.Params, heapSel uint8, seed int64) {
	t.Helper()
	o := QuickOptions()
	cfg := o.Cfg
	cfg.Hosts = 2
	cfg.SharedBytes = fuzzHeap(heapSel, cfg.Hosts)
	const records = 1200
	res, _, rep, err := Run(RunRequest{Cfg: cfg, WL: wl, Scheme: migration.PIPM, Records: records,
		Seed: seed, Audit: audit.Options{Mode: audit.Quantum}})
	if err != nil {
		t.Fatalf("run failed on validated params %+v: %v", wl, err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("auditor violations on validated params %+v: %v", wl, err)
	}
	if res.Instructions < records {
		t.Fatalf("run consumed %d instructions for %d records per core", res.Instructions, records)
	}
}

// FuzzServeWorkloadParams fuzzes the llmserve generator: knob vectors that
// pass Validate must produce in-range addresses and a clean audited run for
// any heap size, including the smallest legal pool and slot counts below
// the host count.
func FuzzServeWorkloadParams(f *testing.F) {
	d := llmserve.Default()
	f.Add(uint16(75), uint16(90), uint16(120), uint16(2), uint16(80), uint16(6),
		uint16(12), uint16(48), uint16(110), uint16(6), uint16(4), uint16(25),
		uint16(8), uint16(16), uint8(3), int64(1))
	f.Add(uint16(5), uint16(0), uint16(0), uint16(1), uint16(0), uint16(0),
		uint16(0), uint16(1), uint16(0), uint16(1), uint16(0), uint16(0),
		uint16(1), uint16(0), uint8(0), int64(7)) // idle-scan degenerate, tiny heap
	f.Add(uint16(100), uint16(100), uint16(300), uint16(8), uint16(2), uint16(20),
		uint16(39), uint16(63), uint16(300), uint16(9), uint16(9), uint16(100),
		uint16(11), uint16(39), uint8(2), int64(42)) // all-in KV pressure
	f.Fuzz(func(t *testing.T, weightFrac, shardFrac, weightZipf, slotPages,
		arrival2x, burst2x, prefill, decode, sessZipf, weightReads, kvWindow,
		migrate, maxActive, gap uint16, heapSel uint8, seed int64) {
		p := llmserve.Params{
			WeightFrac:    float64(weightFrac%110) / 100, // 0..1.09: spans invalid
			ShardFrac:     float64(shardFrac%110) / 100,
			WeightZipfS:   float64(weightZipf%300)/100 - 0.5,
			SlotPages:     int(slotPages % 9),
			ArrivalMean:   float64(arrival2x%160)/2 - 1,
			BurstMean:     float64(burst2x%24) / 2,
			PrefillTokens: int(prefill%42) - 1,
			DecodeTokens:  int(decode % 64),
			SessionZipfS:  float64(sessZipf%300)/100 - 0.5,
			WeightReads:   int(weightReads % 10),
			KVReadWindow:  int(kvWindow%10) - 1,
			MigrateFrac:   float64(migrate%120)/100 - 0.05,
			MaxActive:     int(maxActive % 12),
			GapMean:       int(gap%40) - 1,
		}
		if p == (llmserve.Params{}) {
			p = d // the zero vector means "disabled", not a generator input
		}
		if err := p.Validate(); err != nil {
			return // rejected cleanly: the gate worked
		}
		wl := workload.Params{Name: "llmserve-fuzz", Suite: "Serve", Footprint: 1, Serve: p}
		fuzzRun(t, wl, heapSel, seed)
	})
}

// FuzzFSWorkloadParams fuzzes the daxfs generator the same way: validated
// knob vectors — any op mix, extent geometry or hot-line fanout — must
// survive an audited 2-host run on every heap size, including extents larger
// than the data region and the metadata-only fallback.
func FuzzFSWorkloadParams(f *testing.F) {
	d := daxfs.Default()
	f.Add(uint16(12), uint16(8), uint16(115), uint16(90), uint16(4), uint16(55),
		uint16(25), uint16(96), uint16(8), uint16(2), uint16(20), uint8(3), int64(1))
	f.Add(uint16(5), uint16(1), uint16(0), uint16(0), uint16(1), uint16(70),
		uint16(30), uint16(1), uint16(0), uint16(0), uint16(0), uint8(0), int64(7)) // read-only, tiny heap
	f.Add(uint16(90), uint16(64), uint16(300), uint16(100), uint16(16), uint16(0),
		uint16(0), uint16(127), uint16(15), uint16(7), uint16(39), uint8(1), int64(42)) // append storm
	f.Fuzz(func(t *testing.T, metaFrac, hotLines, fileZipf, ownFrac, extentPages,
		lookup, scan, scanLines, appendLines, casFanout, gap uint16, heapSel uint8, seed int64) {
		lookupFrac := float64(lookup%110) / 100
		scanFrac := float64(scan%110) / 100
		p := daxfs.Params{
			MetaFrac:    float64(metaFrac%110) / 100,
			HotLines:    int(hotLines % (config.LinesPerPage + 4)),
			FileZipfS:   float64(fileZipf%300)/100 - 0.5,
			OwnFrac:     float64(ownFrac%110) / 100,
			ExtentPages: int(extentPages % 20),
			LookupFrac:  lookupFrac,
			ScanFrac:    scanFrac,
			ScanLines:   int(scanLines % 128),
			AppendLines: int(appendLines % 16),
			CASFanout:   int(casFanout % 8),
			GapMean:     int(gap%40) - 1,
		}
		if p == (daxfs.Params{}) {
			p = d
		}
		if err := p.Validate(); err != nil {
			return
		}
		wl := workload.Params{Name: "daxfs-fuzz", Suite: "Serve", Footprint: 1, FS: p}
		fuzzRun(t, wl, heapSel, seed)
	})
}
