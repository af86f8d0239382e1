package validate

import (
	"fmt"
	"math"

	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/llmserve"
	"pipm/internal/migration"
	"pipm/internal/trace"
	"pipm/internal/workload"
)

// Relation is one metamorphic relation: a property that must hold between
// the results of related runs, checked by comparing memoised simulations.
// Check returns a pass detail ("24 runs compared") or a violation error;
// wrap run errors with infra() so the pass aborts instead of mis-reporting
// an infrastructure failure as a violated relation.
type Relation struct {
	Name  string
	Desc  string
	Check func(c *Ctx) (string, error)
}

// Relations is the registry, in report order. DESIGN.md §12 documents each
// relation and how to add one.
var Relations = []Relation{
	{
		Name: "replay-determinism",
		Desc: "two executions of the same (config, workload, scheme, seed) produce identical Results",
		Check: func(c *Ctx) (string, error) {
			o := c.Opt.Harness
			wl := o.Workloads[0]
			k := firstScheme(c, migration.PIPM)
			// Deliberately bypasses the memo: both runs must simulate.
			req := harness.RunRequest{Cfg: o.Cfg, WL: wl, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed}
			a, _, _, err := harness.Run(req)
			if err != nil {
				return "", infra(err)
			}
			b, _, _, err := harness.Run(req)
			if err != nil {
				return "", infra(err)
			}
			if a != b {
				return "", fmt.Errorf("%s/%v: repeated run diverged: %+v vs %+v", wl.Name, k, a, b)
			}
			return fmt.Sprintf("%s/%v simulated twice, bit-identical", wl.Name, k), nil
		},
	},
	{
		Name: "scheme-instruction-invariance",
		Desc: "the instruction count is a property of the trace, identical across every scheme",
		Check: func(c *Ctx) (string, error) {
			runs := 0
			for _, wl := range c.Opt.Harness.Workloads {
				var want int64
				for i, k := range c.Opt.schemes() {
					r, err := c.base(wl, k)
					if err != nil {
						return "", infra(err)
					}
					runs++
					if i == 0 {
						want = r.Instructions
						continue
					}
					if r.Instructions != want {
						return "", fmt.Errorf("%s: %v executed %d instructions, %v executed %d",
							wl.Name, c.Opt.schemes()[0], want, k, r.Instructions)
					}
				}
			}
			return fmt.Sprintf("%d runs agree per workload", runs), nil
		},
	},
	{
		Name: "family-structure",
		Desc: "each scheme family leaves its unused machinery at exactly zero",
		Check: func(c *Ctx) (string, error) {
			runs := 0
			for _, wl := range c.Opt.Harness.Workloads {
				for _, k := range c.Opt.schemes() {
					r, err := c.base(wl, k)
					if err != nil {
						return "", infra(err)
					}
					runs++
					if err := checkFamilyStructure(wl.Name, k, r); err != nil {
						return "", err
					}
				}
			}
			return fmt.Sprintf("%d runs structurally exact", runs), nil
		},
	},
	{
		Name: "zero-sharing-inert",
		Desc: "a workload with SharedFrac=0 moves no data and pays no migration machinery",
		Check: func(c *Ctx) (string, error) {
			wl := c.Opt.Harness.Workloads[0]
			wl.Name += "-noshare"
			wl.SharedFrac = 0
			runs := 0
			for _, k := range c.Opt.schemes() {
				r, err := c.base(wl, k)
				if err != nil {
					return "", infra(err)
				}
				runs++
				if r.Promotions != 0 || r.Demotions != 0 || r.LinesMoved != 0 || r.BytesMoved != 0 {
					return "", fmt.Errorf("%s/%v moved data with zero sharing: prom %d dem %d lines %d bytes %d",
						wl.Name, k, r.Promotions, r.Demotions, r.LinesMoved, r.BytesMoved)
				}
				if r.MgmtStallFrac != 0 || r.TransferFrac != 0 || r.InterStallFrac != 0 {
					return "", fmt.Errorf("%s/%v stalled on migration machinery with zero sharing: mgmt %g transfer %g inter %g",
						wl.Name, k, r.MgmtStallFrac, r.TransferFrac, r.InterStallFrac)
				}
				// HW-static statically pre-assigns every page, so its
				// footprint gauge is legitimately nonzero without a single
				// shared access; every other scheme must stay at zero.
				if k != migration.HWStatic && r.PageFootprintFrac != 0 {
					return "", fmt.Errorf("%s/%v resident pages with zero sharing: %g",
						wl.Name, k, r.PageFootprintFrac)
				}
			}
			return fmt.Sprintf("%d schemes inert on %s", runs, wl.Name), nil
		},
	},
	{
		Name: "threshold-max-degeneration",
		Desc: "raising the PIPM vote threshold to its 6-bit maximum cannot increase promotions",
		Check: func(c *Ctx) (string, error) {
			if !c.Opt.hasScheme(migration.PIPM) {
				return "skipped: pipm not in scheme set", nil
			}
			o := c.Opt.Harness
			hi := o.Cfg
			hi.PIPM.MigrationThreshold = 63
			for _, wl := range o.Workloads {
				def, err := c.base(wl, migration.PIPM)
				if err != nil {
					return "", infra(err)
				}
				strict, err := c.get(hi, wl, migration.PIPM, o.RecordsPerCore, o.Seed)
				if err != nil {
					return "", infra(err)
				}
				if strict.Promotions > def.Promotions {
					return "", fmt.Errorf("%s: threshold 63 promoted %d pages, threshold %d promoted %d",
						wl.Name, strict.Promotions, o.Cfg.PIPM.MigrationThreshold, def.Promotions)
				}
			}
			return fmt.Sprintf("%d workloads monotone", len(o.Workloads)), nil
		},
	},
	{
		Name: "records-prefix-monotonicity",
		Desc: "half the trace simulates strictly less time and fewer instructions than the whole",
		Check: func(c *Ctx) (string, error) {
			o := c.Opt.Harness
			half := o.RecordsPerCore / 2
			if half < 1 {
				return "skipped: record budget too small to halve", nil
			}
			// One statistical workload plus both mechanistic production
			// generators: their readers emit whole multi-record operations,
			// so the budget gate inside the op buffer is what keeps a half
			// budget a strict prefix of the full one.
			wls := []workload.Params{o.Workloads[0]}
			for _, name := range []string{"llmserve", "daxfs"} {
				wl, err := workload.ByName(name)
				if err != nil {
					return "", infra(err)
				}
				wls = append(wls, wl)
			}
			checked := 0
			for _, wl := range wls {
				for _, k := range []migration.Kind{migration.Native, migration.PIPM, migration.Memtis} {
					if !c.Opt.hasScheme(k) {
						continue
					}
					full, err := c.base(wl, k)
					if err != nil {
						return "", infra(err)
					}
					short, err := c.get(o.Cfg, wl, k, half, o.Seed)
					if err != nil {
						return "", infra(err)
					}
					if short.ExecTime >= full.ExecTime || short.Instructions >= full.Instructions {
						return "", fmt.Errorf("%s/%v: prefix not monotone: %v/%d instr vs %v/%d",
							wl.Name, k, short.ExecTime, short.Instructions, full.ExecTime, full.Instructions)
					}
					checked++
				}
			}
			return fmt.Sprintf("%d scheme×workload prefixes monotone", checked), nil
		},
	},
	{
		Name: "local-only-lower-bound",
		Desc: "the local-only idealisation is strictly faster than the native baseline",
		Check: func(c *Ctx) (string, error) {
			if !c.Opt.hasScheme(migration.LocalOnly) || !c.Opt.hasScheme(migration.Native) {
				return "skipped: needs both local-only and native", nil
			}
			for _, wl := range c.Opt.Harness.Workloads {
				if wl.SharedFrac <= 0 {
					continue
				}
				ideal, err := c.base(wl, migration.LocalOnly)
				if err != nil {
					return "", infra(err)
				}
				base, err := c.base(wl, migration.Native)
				if err != nil {
					return "", infra(err)
				}
				if ideal.ExecTime >= base.ExecTime {
					return "", fmt.Errorf("%s: local-only %v not faster than native %v",
						wl.Name, ideal.ExecTime, base.ExecTime)
				}
			}
			return fmt.Sprintf("%d workloads bounded", len(c.Opt.Harness.Workloads)), nil
		},
	},
	{
		Name: "serve-weight-read-invariance",
		Desc: "the llmserve trace never writes the weight region, and every scheme executes exactly the trace's instructions",
		Check: func(c *Ctx) (string, error) {
			wl, err := workload.ByName("llmserve")
			if err != nil {
				return "", infra(err)
			}
			o := c.Opt.Harness
			am := config.NewAddressMap(&o.Cfg)
			// The trace-side half: drain the exact readers the simulations
			// consume and classify every access against the weight boundary.
			hosts := o.Cfg.Hosts
			counts := trace.Profile(hosts, o.Cfg.CoresPerHost, llmserve.WeightBoundary(wl.Serve, am, hosts),
				func(h, c int) trace.Reader { return wl.NewReader(am, hosts, h, c, o.RecordsPerCore, o.Seed) })
			if counts.BelowWrites != 0 {
				return "", fmt.Errorf("llmserve trace wrote the weight region %d times", counts.BelowWrites)
			}
			if counts.BelowReads == 0 {
				return "", fmt.Errorf("llmserve trace never read the weight region (%+v)", counts)
			}
			// The machine-side half: a scheme migrates and stalls, but it
			// must not invent or drop work — every scheme's instruction
			// count equals the trace profile's, making the weight-read count
			// above a scheme-invariant of the whole sweep.
			runs := 0
			for _, k := range c.Opt.schemes() {
				r, err := c.base(wl, k)
				if err != nil {
					return "", infra(err)
				}
				runs++
				if r.Instructions != counts.Instructions {
					return "", fmt.Errorf("llmserve/%v executed %d instructions, trace profile has %d",
						k, r.Instructions, counts.Instructions)
				}
			}
			return fmt.Sprintf("%d weight reads, 0 weight writes, invariant across %d schemes", counts.BelowReads, runs), nil
		},
	},
	{
		Name: "serve-degenerate-readonly",
		Desc: "arrivals-off llmserve and append-free own-subtree daxfs degenerate to host-local read-only traffic that PIPM absorbs toward the local-only ideal",
		Check: func(c *Ctx) (string, error) {
			if !c.Opt.hasScheme(migration.LocalOnly) || !c.Opt.hasScheme(migration.PIPM) ||
				!c.Opt.hasScheme(migration.Native) {
				return "skipped: needs local-only, pipm and native", nil
			}
			serve, err := workload.ByName("llmserve")
			if err != nil {
				return "", infra(err)
			}
			serve.Name += "-idle"
			serve.Serve.ArrivalMean = 0 // no sessions: only the idle scan of the host's own weight shard
			fs, err := workload.ByName("daxfs")
			if err != nil {
				return "", infra(err)
			}
			fs.Name += "-scan"
			fs.FS.LookupFrac, fs.FS.ScanFrac = 0, 1 // no appends, no shared hot-line lookups
			fs.FS.OwnFrac = 1                       // every scan stays in the host's own subtree

			// Both degenerates are perfectly host-partitioned read-only
			// traces — PIPM's best case. Exact equality with the local-only
			// idealisation is unreachable in finite runs: every page must be
			// discovered remotely before its votes trip promotion, and lines
			// migrate only as the LLC evicts them (the paper's Loc-WB
			// trigger plus the clean-Exclusive extension), so the warmup is
			// O(pages) and the steady state keeps the remap-walk cost. What
			// must hold over the seed sweep: mean exec times order strictly
			// local-only < PIPM < native (95% CIs reported alongside), PIPM
			// closes most of the native→ideal gap, its local hit rate
			// converges toward local-only's 1.0 as the budget doubles, and
			// native stays at exactly zero local hits.
			const minClosure = 0.40
			// Below ~5 full sweeps of a host's share of the quick heap the
			// run is all warmup and the closure bound is vacuous, so the
			// relation enforces a record floor instead of inheriting an
			// arbitrarily small budget.
			const minRecords = 60_000
			o := c.Opt.Harness
			records := o.RecordsPerCore
			if records < minRecords {
				records = minRecords
			}
			var details string
			for _, wl := range []workload.Params{serve, fs} {
				sample := func(k migration.Kind) (exec, hit Estimate, err error) {
					xs := make([]float64, 0, c.Opt.Seeds)
					hs := make([]float64, 0, c.Opt.Seeds)
					for seed := o.Seed; seed < o.Seed+int64(c.Opt.Seeds); seed++ {
						r, err := c.get(o.Cfg, wl, k, records, seed)
						if err != nil {
							return Estimate{}, Estimate{}, err
						}
						xs = append(xs, float64(r.ExecTime))
						hs = append(hs, r.LocalHitRate)
					}
					return estimate(xs), estimate(hs), nil
				}
				ideal, idealHit, err := sample(migration.LocalOnly)
				if err != nil {
					return "", infra(err)
				}
				pipm, pipmHit, err := sample(migration.PIPM)
				if err != nil {
					return "", infra(err)
				}
				native, nativeHit, err := sample(migration.Native)
				if err != nil {
					return "", infra(err)
				}
				if idealHit.Mean != 1 || idealHit.Stddev != 0 {
					return "", fmt.Errorf("%s: local-only hit rate %.4g ± %.2g, want exactly 1",
						wl.Name, idealHit.Mean, idealHit.Stddev)
				}
				if nativeHit.Mean != 0 || nativeHit.Stddev != 0 {
					return "", fmt.Errorf("%s: native hit rate %.4g ± %.2g, want exactly 0",
						wl.Name, nativeHit.Mean, nativeHit.Stddev)
				}
				if ideal.Mean >= pipm.Mean {
					return "", fmt.Errorf("%s: local-only %.4g ± %.2g ps not below pipm %.4g ± %.2g ps",
						wl.Name, ideal.Mean, ideal.CI95, pipm.Mean, pipm.CI95)
				}
				if pipm.Mean >= native.Mean {
					return "", fmt.Errorf("%s: pipm %.4g ± %.2g ps not below native %.4g ± %.2g ps",
						wl.Name, pipm.Mean, pipm.CI95, native.Mean, native.CI95)
				}
				closure := (native.Mean - pipm.Mean) / (native.Mean - ideal.Mean)
				if math.IsNaN(closure) || closure < minClosure {
					return "", fmt.Errorf("%s: pipm closes only %.2g of the native→local-only gap, want ≥ %.2g",
						wl.Name, closure, minClosure)
				}
				// Convergence toward the ideal: doubling the budget amortises
				// more of the O(pages) warmup, so the hit rate must rise
				// (one seed — the doubled runs are the expensive ones).
				r2, err := c.get(o.Cfg, wl, migration.PIPM, 2*records, o.Seed)
				if err != nil {
					return "", infra(err)
				}
				r1, err := c.get(o.Cfg, wl, migration.PIPM, records, o.Seed)
				if err != nil {
					return "", infra(err)
				}
				if r2.LocalHitRate <= r1.LocalHitRate {
					return "", fmt.Errorf("%s: pipm hit rate %.4g at 2× budget not above %.4g at 1× — not converging on local-only",
						wl.Name, r2.LocalHitRate, r1.LocalHitRate)
				}
				if details != "" {
					details += ", "
				}
				details += fmt.Sprintf("%s closes %.0f%% (hit %.2f→%.2f)",
					wl.Name, 100*closure, pipmHit.Mean, r2.LocalHitRate)
			}
			return details + fmt.Sprintf(" over %d seeds", c.Opt.Seeds), nil
		},
	},
	{
		Name: "seed-structural-invariance",
		Desc: "changing the seed changes measurements but never the structural zeros",
		Check: func(c *Ctx) (string, error) {
			o := c.Opt.Harness
			wl := o.Workloads[0]
			runs := 0
			for seed := o.Seed; seed < o.Seed+int64(c.Opt.Seeds); seed++ {
				for _, k := range c.Opt.schemes() {
					// Shared with the replication sweep through the memo.
					r, err := c.get(o.Cfg, wl, k, o.RecordsPerCore, seed)
					if err != nil {
						return "", infra(err)
					}
					runs++
					if err := checkFamilyStructure(wl.Name, k, r); err != nil {
						return "", fmt.Errorf("seed %d: %w", seed, err)
					}
				}
			}
			return fmt.Sprintf("%d runs across %d seeds", runs, c.Opt.Seeds), nil
		},
	},
}

// checkFamilyStructure asserts the structural zeros of a scheme's family: a
// native run has no migration machinery at all, kernel schemes never move
// individual lines or touch remapping hardware, and hardware schemes never
// pay kernel shootdown or transfer stalls.
func checkFamilyStructure(wl string, k migration.Kind, r harness.Result) error {
	sc, ok := migration.Lookup(k)
	if !ok {
		return fmt.Errorf("%s: unknown scheme %v", wl, k)
	}
	switch sc.Family {
	case migration.FamilyNative, migration.FamilyLocalOnly:
		if r.Promotions != 0 || r.Demotions != 0 || r.LinesMoved != 0 || r.BytesMoved != 0 {
			return fmt.Errorf("%s/%v (%s family) migrated: prom %d dem %d lines %d bytes %d",
				wl, k, sc.Family, r.Promotions, r.Demotions, r.LinesMoved, r.BytesMoved)
		}
		if r.MgmtStallFrac != 0 || r.TransferFrac != 0 {
			return fmt.Errorf("%s/%v (%s family) paid migration stalls: mgmt %g transfer %g",
				wl, k, sc.Family, r.MgmtStallFrac, r.TransferFrac)
		}
		if r.PageFootprintFrac != 0 || r.LineFootprintFrac != 0 {
			return fmt.Errorf("%s/%v (%s family) reported local residency: pages %g lines %g",
				wl, k, sc.Family, r.PageFootprintFrac, r.LineFootprintFrac)
		}
		if r.LocalRemapHitRate != 0 || r.GlobalRemapHitRate != 0 {
			return fmt.Errorf("%s/%v (%s family) touched remap caches", wl, k, sc.Family)
		}
	case migration.FamilyKernel:
		if r.LinesMoved != 0 {
			return fmt.Errorf("%s/%v (kernel family) moved %d individual lines", wl, k, r.LinesMoved)
		}
		if r.LocalRemapHitRate != 0 || r.GlobalRemapHitRate != 0 {
			return fmt.Errorf("%s/%v (kernel family) touched remap caches", wl, k)
		}
	case migration.FamilyHardware:
		if r.MgmtStallFrac != 0 || r.TransferFrac != 0 {
			return fmt.Errorf("%s/%v (hardware family) paid kernel stalls: mgmt %g transfer %g",
				wl, k, r.MgmtStallFrac, r.TransferFrac)
		}
	}
	return nil
}

// firstScheme returns preferred when it is in the pass's scheme set, else the
// set's first scheme.
func firstScheme(c *Ctx, preferred migration.Kind) migration.Kind {
	if c.Opt.hasScheme(preferred) {
		return preferred
	}
	return c.Opt.schemes()[0]
}
