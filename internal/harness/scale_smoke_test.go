package harness

import (
	"fmt"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
)

// TestClusterScaleAuditedSmoke runs short 64- and 256-host simulations under
// the paranoid auditor: every invariant sweep (SWMR, directory precision,
// owned-page conservation, remap agreement) executes against the widest
// exact sharer bitmask and against the summary representation with its
// region-granular Describes check — state no 4-host run can reach. PIPM
// exercises the sharded directory and 3-byte global remap entries; Nomad
// exercises the sparse hotness rows the kernel family switches to past 64
// hosts. CI runs this under -race as the cluster-scale smoke.
func TestClusterScaleAuditedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("audited cluster runs are too slow for -short")
	}
	o := QuickOptions()
	wl := mustWorkload("pr")
	for _, tc := range []struct {
		hosts   int
		records int64
		k       migration.Kind
	}{
		{64, 1500, migration.PIPM},
		{64, 1500, migration.Nomad},
		{256, 256, migration.PIPM},
		{256, 256, migration.Nomad},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dhosts-%v", tc.hosts, tc.k), func(t *testing.T) {
			t.Parallel()
			cfg := ScaleForHosts(o.Cfg, tc.hosts)
			_, _, rep, err := Run(RunRequest{Cfg: cfg, WL: wl, Scheme: tc.k, Records: tc.records,
				Seed: o.Seed, Audit: audit.Options{Mode: audit.Paranoid}})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
