package harness

import (
	"fmt"

	"pipm/internal/migration"
	"pipm/internal/workload"
)

// ------------------------------------------------ production-service suite --

// ServeWorkloads returns the production-service workload family the serve
// comparison sweeps: the mechanistic llmserve and daxfs generators.
func ServeWorkloads() []workload.Params { return workload.Production() }

// serveScaleReq names one serve-comparison run at a given cluster size: the
// cluster-scale configuration and record-budget rules, but telemetry-free —
// the golden serve tier pins these runs by key, and keeping them plain means
// the base-host column of the scale cut aliases the all-scheme comparison's
// runs through the memo instead of re-simulating under a telemetry key.
func (s *Suite) serveScaleReq(wl workload.Params, hosts int, k migration.Kind) RunRequest {
	r := s.req(ScaleForHosts(s.opt.Cfg, hosts), wl, k)
	r.Records = ClusterScaleRecords(s.opt.RecordsPerCore, s.opt.Cfg.Hosts, hosts)
	return r
}

// serveComparison is the production-service figure: every scheme on the
// llmserve and daxfs workloads at the base cluster size, then a per-workload
// cluster-scale cut over the same host ladder and scheme subset as the
// cluster-scale figure. The read-mostly weight region and write-heavy
// migrating KV slots (llmserve) and the all-host CAS contention over cold
// extents (daxfs) probe PIPM's partial-absorption premise where the Table 1
// kernels never do.
func serveComparison(p *plan, hostCounts []int) []Table {
	if len(hostCounts) == 0 {
		hostCounts = ClusterScaleHosts()
	}
	workloads := ServeWorkloads()
	speedup := func(wl workload.Params, hosts int, k migration.Kind) float64 {
		nat := p.fetch(p.serveScaleReq(wl, hosts, migration.Native))
		return Speedup(p.fetch(p.serveScaleReq(wl, hosts, k)), nat)
	}

	base := Table{
		Title:     fmt.Sprintf("Production services: speedup over Native (%d hosts)", p.opt.Cfg.Hosts),
		MeanLabel: "mean",
	}
	for _, wl := range workloads {
		base.Cols = append(base.Cols, wl.Name)
	}
	for _, k := range migration.Kinds {
		if k == migration.Native {
			continue
		}
		var row []float64
		for _, wl := range workloads {
			row = append(row, speedup(wl, p.opt.Cfg.Hosts, k))
		}
		base.Rows = append(base.Rows, k.String())
		base.Cells = append(base.Cells, row)
	}
	tables := []Table{base}

	for _, wl := range workloads {
		scale := Table{
			Title:     fmt.Sprintf("Production services: speedup over Native vs host count (%s)", wl.Name),
			MeanLabel: "mean",
		}
		for _, hosts := range hostCounts {
			scale.Cols = append(scale.Cols, fmt.Sprintf("%dhosts", hosts))
		}
		for _, k := range clusterScaleSchemes {
			if k == migration.Native {
				continue
			}
			var row []float64
			for _, hosts := range hostCounts {
				row = append(row, speedup(wl, hosts, k))
			}
			scale.Rows = append(scale.Rows, k.String())
			scale.Cells = append(scale.Cells, row)
		}
		tables = append(tables, scale)
	}
	return tables
}
