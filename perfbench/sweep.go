package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/workload"
)

// goldenSeed is the seed every golden digest tier was recorded at.
const goldenSeed = 1

// goldenDir holds the golden digest tiers, relative to the repository root.
const goldenDir = "internal/harness/testdata"

// goldenFiles are the digest tiers a benchmark simulation can be checked
// against; all of them key their entries by the canonical RunKey.
var goldenFiles = []string{"golden_quick.json", "golden_scale.json", "golden_serve.json"}

// job is one simulation of a benchmark sweep: the exact (config, workload,
// scheme, per-core records) a golden tier pins.
type job struct {
	name    string // workload/hosts/scheme, for diagnostics
	wl      workload.Params
	cfg     config.Config
	kind    migration.Kind
	family  migration.Family
	records int64 // per-core budget after ClusterScaleRecords
	total   int64 // records actually simulated: hosts × cores × records
}

// workloads maps each benchmark workload to the sweep it runs. Each is a
// slice of an existing golden tier, so every Result is checked for free.
var workloads = map[string]func() []job{
	// pr, canneal and ycsb × all schemes at 4 hosts × 1 core (golden_quick).
	"quick-4h": func() []job {
		o := harness.QuickOptions()
		return cross(o.Workloads, []int{o.Cfg.Hosts}, migration.Kinds)
	},
	// llmserve and daxfs × all schemes at 4 hosts (golden_serve).
	"serve-4h": func() []job {
		o := harness.QuickOptions()
		return cross(harness.ServeWorkloads(), []int{o.Cfg.Hosts}, migration.Kinds)
	},
	// pr, llmserve and daxfs × the cluster-scale scheme subset at 64 and 256
	// hosts (golden_scale and golden_serve).
	"cluster-scale": func() []job {
		wls := append([]workload.Params{mustWorkload("pr")}, harness.ServeWorkloads()...)
		schemes := []migration.Kind{migration.Native, migration.PIPM, migration.HWStatic, migration.Nomad}
		return cross(wls, []int{64, 256}, schemes)
	},
}

// cross builds the host-major, workload-then-scheme sweep over the quick
// configuration, scaled per host count exactly as the golden tiers are.
func cross(wls []workload.Params, hostCounts []int, schemes []migration.Kind) []job {
	o := harness.QuickOptions()
	var sims []job
	for _, hosts := range hostCounts {
		cfg := harness.ScaleForHosts(o.Cfg, hosts)
		records := harness.ClusterScaleRecords(o.RecordsPerCore, o.Cfg.Hosts, hosts)
		for _, wl := range wls {
			for _, k := range schemes {
				ent, ok := migration.Lookup(k)
				if !ok {
					panic(fmt.Sprintf("scheme %v is not registered", k))
				}
				sims = append(sims, job{
					name:    fmt.Sprintf("%s/%dh/%v", wl.Name, hosts, k),
					wl:      wl,
					cfg:     cfg,
					kind:    k,
					family:  ent.Family,
					records: records,
					total:   int64(cfg.Hosts) * int64(cfg.CoresPerHost) * records,
				})
			}
		}
	}
	return sims
}

func mustWorkload(name string) workload.Params {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// loadGolden reads every golden tier, relative to the repository root the
// benchmark runs from, into one RunKey → digest map. The tiers overlap (the 4-host pr entries appear in two of them); an
// overlapping key must carry the same digest in each.
func loadGolden() (map[string]string, error) {
	golden := map[string]string{}
	for _, f := range goldenFiles {
		path := filepath.Join(goldenDir, f)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading golden tier: %w", err)
		}
		var tier struct {
			Seed    int64 `json:"seed"`
			Entries []struct {
				Key    string `json:"key"`
				Digest string `json:"digest"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(buf, &tier); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		if tier.Seed != goldenSeed {
			return nil, fmt.Errorf("%s: recorded at seed %d, want %d", path, tier.Seed, goldenSeed)
		}
		for _, e := range tier.Entries {
			if d, ok := golden[e.Key]; ok && d != e.Digest {
				return nil, fmt.Errorf("%s: key %s… has conflicting digests across tiers", path, e.Key[:12])
			}
			golden[e.Key] = e.Digest
		}
	}
	return golden, nil
}
