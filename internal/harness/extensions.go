package harness

import (
	"fmt"
	"strings"

	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// The experiments below go beyond the paper's printed figures and cover the
// claims its text makes without a figure: §4.5's scalability argument
// (majority voting keeps suppressing harmful migrations as hosts grow) and
// §5.1.4's threshold robustness ("similar performance with thresholds
// ranging from 4 to 16").

// scalability sweeps the host count (default 2, 4, 8) and reports PIPM's
// speedup over Native on each workload. Cores per host and the shared heap
// stay fixed, so adding hosts adds both compute demand and sharing pressure.
func scalability(p *plan, hostCounts []int) []Table {
	if len(hostCounts) == 0 {
		hostCounts = []int{2, 4, 8}
	}
	t := Table{
		Title:     "Scalability (§4.5): PIPM speedup over Native vs host count",
		MeanLabel: "mean",
	}
	for _, h := range hostCounts {
		t.Cols = append(t.Cols, fmt.Sprintf("%dhosts", h))
	}
	for _, wl := range p.opt.Workloads {
		var row []float64
		for _, hosts := range hostCounts {
			cfg := p.opt.Cfg
			cfg.Hosts = hosts
			nat := p.get(cfg, wl, migration.Native)
			row = append(row, Speedup(p.get(cfg, wl, migration.PIPM), nat))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// adaptivity runs phase-rotating variants of the workloads: halfway
// through the trace each host's partition affinity shifts to the next host, so
// yesterday's perfect placement is today's remote data. PIPM's vote plus
// revocation tracks the shift; HW-static's fixed mapping cannot — the
// dynamic-remapping argument of §3.3 made quantitative. The rotated Params
// differ from the catalog entry only in RotateEvery, which the run key
// captures, so these runs never alias the fixed-affinity sweep.
func adaptivity(p *plan, _ []int) []Table {
	t := Table{
		Title:     "Adaptivity: speedup over Native with rotating partition affinity",
		MeanLabel: "mean",
		Cols:      []string{"hw-static", "pipm"},
	}
	for _, wl := range p.opt.Workloads {
		rot := wl
		rot.RotateEvery = p.opt.RecordsPerCore / 2 // two phases per run
		nat := p.get(p.opt.Cfg, rot, migration.Native)
		var row []float64
		for _, k := range []migration.Kind{migration.HWStatic, migration.PIPM} {
			row = append(row, Speedup(p.get(p.opt.Cfg, rot, k), nat))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// ---------------------------------------------------------- cluster scale --

// ClusterScaleHosts is the default host sweep of the cluster-scale
// experiment: the paper's 4-host configuration plus the 16/64/256 points
// that exercise, in turn, the sharded directory, the widest exact sharer
// bitmask, and the summary sharer representation.
func ClusterScaleHosts() []int { return []int{4, 16, 64, 256} }

// clusterScaleSchemes is the presentation order of the cluster-scale
// comparison: the Native denominator, PIPM, the static-placement bound it
// must track, and one side-effect-blind kernel policy whose ordering below
// PIPM must survive every cluster size.
var clusterScaleSchemes = []migration.Kind{
	migration.Native, migration.PIPM, migration.HWStatic, migration.Nomad,
}

// ScaleForHosts derives the cluster-size variant of a base configuration.
// The 4-host base is returned untouched apart from the host count, so the
// small point of the sweep shares the quick sweep's exact machine shape; at
// 16 hosts and beyond the device directory grows power-of-two slices toward
// min(hosts, 64) so per-slice occupancy stays flat as the cluster grows.
func ScaleForHosts(cfg config.Config, hosts int) config.Config {
	cfg.Hosts = hosts
	if hosts >= 16 {
		for cfg.CXL.DirSlices < hosts && cfg.CXL.DirSlices < 64 {
			cfg.CXL.DirSlices *= 2
		}
	}
	return cfg
}

// ClusterScaleRecords scales the per-core record budget inversely with the
// host count so the sweep's total trace volume — and its wall-clock cost —
// stays near the base configuration's as hosts grow, floored so the largest
// cluster still runs long enough to reach steady placement.
func ClusterScaleRecords(recordsPerCore int64, baseHosts, hosts int) int64 {
	r := recordsPerCore * int64(baseHosts) / int64(hosts)
	if r < 512 {
		r = 512
	}
	return r
}

// clusterScaleReq names one cluster-scale run: the scaled configuration and
// record budget, with a time-series enabled so link occupancy is observable.
// Telemetry joins the run identity, so these runs never alias the quick
// sweep's — the 4-host golden digests are computed from telemetry-free runs.
func (s *Suite) clusterScaleReq(wl workload.Params, hosts int, k migration.Kind) RunRequest {
	r := s.req(ScaleForHosts(s.opt.Cfg, hosts), wl, k)
	r.Records = ClusterScaleRecords(s.opt.RecordsPerCore, s.opt.Cfg.Hosts, hosts)
	r.Telemetry = telemetry.Options{SampleInterval: 200 * sim.Microsecond}
	return r
}

// linkOccupancy derives the mean per-direction CXL link utilisation of a run
// from its closing telemetry snapshot: every host's up- and down-pipe busy
// time (cumulative gauges, so the last sample is the whole run) over the
// aggregate link-time 2·hosts·makespan.
func linkOccupancy(out *telemetry.Output, hosts int, exec sim.Time) float64 {
	if out == nil || out.Series == nil || len(out.Series.Samples) == 0 || hosts <= 0 || exec <= 0 {
		return 0
	}
	last := out.Series.Samples[len(out.Series.Samples)-1]
	var busy float64
	for i, name := range out.Series.Names {
		if strings.HasSuffix(name, ".link.up.busy_ps") || strings.HasSuffix(name, ".link.down.busy_ps") {
			busy += last.Values[i]
		}
	}
	return busy / (2 * float64(hosts) * float64(exec))
}

// clusterScale sweeps the cluster size across representation regimes (exact
// sharer bitmask at 4/16/64 hosts, summary sets plus sparse hotness rows at
// 256) and reports two tables: scheme speedup over Native — the paper's
// ordering claim, which must hold at every size — and CXL link occupancy,
// where batched region shootdowns must keep the fabric from saturating as
// sharer populations grow. One workload (pr, the strongest sharing pressure
// in the quick set) keeps the 256-host point affordable.
func clusterScale(p *plan, hostCounts []int) []Table {
	if len(hostCounts) == 0 {
		hostCounts = ClusterScaleHosts()
	}
	wl := mustWorkload("pr")
	speed := Table{
		Title:     "Cluster scale: speedup over Native vs host count (pr)",
		MeanLabel: "mean",
	}
	occ := Table{
		Title: "Cluster scale: CXL link occupancy vs host count (pr)",
		Fmt:   "%.4f",
	}
	for _, hosts := range hostCounts {
		col := fmt.Sprintf("%dhosts", hosts)
		speed.Cols = append(speed.Cols, col)
		occ.Cols = append(occ.Cols, col)
	}
	for _, k := range clusterScaleSchemes {
		var srow, orow []float64
		for _, hosts := range hostCounts {
			req := p.clusterScaleReq(wl, hosts, k)
			res := p.fetch(req)
			if k != migration.Native {
				srow = append(srow, Speedup(res, p.fetch(p.clusterScaleReq(wl, hosts, migration.Native))))
			}
			orow = append(orow, linkOccupancy(p.telemetry(req), hosts, res.ExecTime))
		}
		if k != migration.Native {
			speed.Rows = append(speed.Rows, k.String())
			speed.Cells = append(speed.Cells, srow)
		}
		occ.Rows = append(occ.Rows, k.String())
		occ.Cells = append(occ.Cells, orow)
	}
	return []Table{speed, occ}
}

// thresholdSensitivity sweeps the majority-vote promotion threshold and
// reports PIPM's speedup over Native — the §5.1.4 robustness claim. The
// point matching the base configuration's threshold shares its run with the
// Fig 10–13 sweep through the memo.
func thresholdSensitivity(p *plan, _ []int) []Table {
	thresholds := []int{2, 4, 8, 16, 32}
	t := Table{
		Title:     "Threshold sensitivity (§5.1.4): PIPM speedup over Native vs vote threshold",
		MeanLabel: "mean",
	}
	for _, th := range thresholds {
		t.Cols = append(t.Cols, fmt.Sprintf("th=%d", th))
	}
	for _, wl := range p.opt.Workloads {
		nat := p.get(p.opt.Cfg, wl, migration.Native)
		var row []float64
		for _, th := range thresholds {
			cfg := p.opt.Cfg
			cfg.PIPM.MigrationThreshold = th
			row = append(row, Speedup(p.get(cfg, wl, migration.PIPM), nat))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}
