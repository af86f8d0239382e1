package coherence_test

import (
	"testing"

	"pipm/internal/coherence"
	"pipm/internal/config"
	"pipm/internal/harness"
)

// poolDir builds the directory machine.New builds for cfg: over the CXL
// pool's lines, starting at its first line.
func poolDir(cfg config.Config) *coherence.DeviceDir {
	am := config.NewAddressMap(&cfg)
	return coherence.NewDeviceDir(cfg.CXL, am.SharedAddr(0)>>config.LineShift, cfg.SharedPages()*config.LinesPerPage)
}

// TestDirectoryLayoutRule pins which layout each run geometry takes. The
// quick 4 MiB heap (65,536 lines) puts at most 2 lines in a residue class
// at 16 slices and 1 at 64, so no set can overflow and the directory is
// dense. Table 2's 64 MiB heap puts 32 lines in each class at 16 slices,
// more than its 16 ways, so it stays set-associative with every way stored
// and keeps its back-invalidations.
func TestDirectoryLayoutRule(t *testing.T) {
	quick := harness.QuickOptions().Cfg
	for _, c := range []struct {
		name        string
		cfg         config.Config
		slices      int
		dense, ways int
	}{
		{"quick/4h", harness.ScaleForHosts(quick, 4), 16, 65536, 0},
		{"quick/64h", harness.ScaleForHosts(quick, 64), 64, 65536, 0},
		{"quick/256h", harness.ScaleForHosts(quick, 256), 64, 65536, 0},
		{"table2", config.Default(), 16, 0, 16},
	} {
		d := poolDir(c.cfg)
		dense, ways := coherence.Layout(d)
		if d.Slices() != c.slices || dense != c.dense || ways != c.ways {
			t.Errorf("%s: %d slices, %d dense lines, %d ways; want %d, %d, %d",
				c.name, d.Slices(), dense, ways, c.slices, c.dense, c.ways)
		}
		if want := c.cfg.CXL.DirSets * c.cfg.CXL.DirWays * c.slices; d.Capacity() != want {
			t.Errorf("%s: capacity %d, want the configured %d", c.name, d.Capacity(), want)
		}
	}
}

// TestDenseLayoutBoundary: a domain whose residue classes hold exactly
// Ways lines is dense; one line more puts Ways+1 lines in one class, so
// that set could overflow and the directory stays set-associative.
func TestDenseLayoutBoundary(t *testing.T) {
	cfg := config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2} // 8 classes
	if dense, ways := coherence.Layout(coherence.NewDeviceDir(cfg, 3, 16)); dense != 16 || ways != 0 {
		t.Errorf("16 lines: %d dense lines, %d ways; want dense", dense, ways)
	}
	if dense, ways := coherence.Layout(coherence.NewDeviceDir(cfg, 3, 17)); dense != 0 || ways != 2 {
		t.Errorf("17 lines: %d dense lines, %d ways; want 2 ways", dense, ways)
	}
}

// TestDenseLayoutRejectsForeignLines: a dense directory covers only
// [first, first+lines); every entry operation on a line outside panics.
func TestDenseLayoutRejectsForeignLines(t *testing.T) {
	const first, lines = 100, 16
	cfg := config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2}
	ops := map[string]func(d *coherence.DeviceDir, l config.Addr){
		"Lookup": func(d *coherence.DeviceDir, l config.Addr) { d.Lookup(l) },
		"Peek":   func(d *coherence.DeviceDir, l config.Addr) { d.Peek(l) },
		"Update": func(d *coherence.DeviceDir, l config.Addr) {
			d.Update(l, coherence.Entry{State: coherence.DirModified})
		},
		"Remove":       func(d *coherence.DeviceDir, l config.Addr) { d.Remove(l) },
		"RemoveSharer": func(d *coherence.DeviceDir, l config.Addr) { d.RemoveSharer(l, 0) },
	}
	for name, op := range ops {
		for _, l := range []config.Addr{0, first - 1, first + lines, first + lines + 8} {
			d := coherence.NewDeviceDir(cfg, first, lines)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on lines [%d, %d) did not panic", name, l, first, first+lines)
					}
				}()
				op(d, l)
			}()
		}
		d := coherence.NewDeviceDir(cfg, first, lines)
		op(d, first)
		op(d, first+lines-1)
	}
}
