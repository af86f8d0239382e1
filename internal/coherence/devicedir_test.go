package coherence

import (
	"math/rand"
	"testing"

	"pipm/internal/config"
)

// anyLines is a line domain large enough that NewDeviceDir takes the
// set-associative layout for every geometry in these tests.
const anyLines = 1 << 40

func tiny() *DeviceDir {
	return NewDeviceDir(config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2, LinkBW: 1}, 0, anyLines)
}

func TestDirStateString(t *testing.T) {
	if DirInvalid.String() != "I" || DirShared.String() != "S" || DirModified.String() != "M" {
		t.Fatal("DirState.String mismatch")
	}
}

func TestLookupMissThenInstall(t *testing.T) {
	d := tiny()
	if _, ok := d.Lookup(42); ok {
		t.Fatal("hit in empty directory")
	}
	d.Update(42, Entry{State: DirShared, Sharers: SharerSetOf(0, 0, 2)})
	e, ok := d.Lookup(42)
	if !ok || e.State != DirShared || e.Sharers != SharerSetOf(0, 0, 2) {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	s := d.Stats()
	if s.MissI != 1 || s.HitS != 1 || s.Installs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUpdateInPlace(t *testing.T) {
	d := tiny()
	d.Update(7, Entry{State: DirShared, Sharers: SharerSetOf(0, 0)})
	if _, evicted := d.Update(7, Entry{State: DirModified, Owner: 3}); evicted {
		t.Fatal("in-place update evicted")
	}
	e, _ := d.Lookup(7)
	if e.State != DirModified || e.Owner != 3 {
		t.Fatalf("entry = %+v", e)
	}
	if d.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", d.Occupancy())
	}
}

func TestUpdateInvalidRemoves(t *testing.T) {
	d := tiny()
	d.Update(7, Entry{State: DirShared, Sharers: SharerSetOf(0, 0)})
	d.Update(7, Entry{State: DirInvalid})
	if _, ok := d.Lookup(7); ok {
		t.Fatal("entry survived invalidating update")
	}
	// Invalid update of an absent line is a no-op.
	if _, evicted := d.Update(99, Entry{State: DirInvalid}); evicted {
		t.Fatal("invalid update of absent line evicted")
	}
	if d.Occupancy() != 0 {
		t.Fatal("occupancy nonzero")
	}
}

func TestBackInvalidation(t *testing.T) {
	d := tiny()
	// Fill one set: lines mapping to slice 0, set 0 are multiples of
	// slices*sets = 8.
	d.Update(0, Entry{State: DirShared, Sharers: SharerSetOf(0, 0)})
	d.Update(8*1, Entry{State: DirModified, Owner: 2})
	bi, evicted := d.Update(8*2, Entry{State: DirShared, Sharers: SharerSetOf(0, 1)})
	if !evicted {
		t.Fatal("third entry in 2-way set did not back-invalidate")
	}
	if bi.Line != 0 || bi.Entry.State != DirShared {
		t.Fatalf("back-invalidated %+v, want line 0 in S", bi)
	}
	if d.Stats().BackInvals != 1 {
		t.Fatalf("BackInvals = %d", d.Stats().BackInvals)
	}
}

func TestRemove(t *testing.T) {
	d := tiny()
	d.Update(5, Entry{State: DirModified, Owner: 1})
	e, ok := d.Remove(5)
	if !ok || e.Owner != 1 {
		t.Fatalf("Remove = %+v, %v", e, ok)
	}
	if _, ok := d.Remove(5); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestRemoveSharer(t *testing.T) {
	d := tiny()
	d.Update(5, Entry{State: DirShared, Sharers: SharerSetOf(0, 1, 2)})
	if !d.RemoveSharer(5, 1) {
		t.Fatal("entry should remain with one sharer left")
	}
	e, _ := d.Lookup(5)
	if e.Sharers != SharerSetOf(0, 2) {
		t.Fatalf("sharers = %v", e.Sharers)
	}
	if d.RemoveSharer(5, 2) {
		t.Fatal("entry should vanish when last sharer leaves")
	}
	if _, ok := d.Lookup(5); ok {
		t.Fatal("empty entry still present")
	}
	// M entries vanish when the owner leaves.
	d.Update(6, Entry{State: DirModified, Owner: 3})
	if d.RemoveSharer(6, 3) {
		t.Fatal("M entry should vanish when owner leaves")
	}
	// Removing a non-owner from an M entry keeps it.
	d.Update(6, Entry{State: DirModified, Owner: 3})
	if !d.RemoveSharer(6, 1) {
		t.Fatal("M entry should survive removal of non-owner")
	}
	// Absent line.
	if d.RemoveSharer(1234, 0) {
		t.Fatal("RemoveSharer on absent line returned true")
	}
}

func TestSlicingSpreadsEntries(t *testing.T) {
	d := tiny() // 2 slices × 4 sets × 2 ways = 16 entries
	// 16 consecutive lines should all fit: consecutive lines alternate
	// slices and walk sets.
	for i := config.Addr(0); i < 16; i++ {
		if _, evicted := d.Update(i, Entry{State: DirShared, Sharers: SharerSetOf(0, 0)}); evicted {
			t.Fatalf("eviction while filling to capacity at line %d", i)
		}
	}
	if d.Occupancy() != d.Capacity() {
		t.Fatalf("occupancy %d != capacity %d", d.Occupancy(), d.Capacity())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	d := tiny()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		d.Update(config.Addr(rng.Intn(4096)), Entry{State: DirShared, Sharers: SharerSetOf(0, 0)})
		if d.Occupancy() > d.Capacity() {
			t.Fatal("occupancy exceeded capacity")
		}
	}
}

func TestDefaultGeometryMatchesTable2(t *testing.T) {
	c := config.Default()
	d := NewDeviceDir(c.CXL, 0, anyLines)
	if d.Capacity() != 2048*16*16 {
		t.Fatalf("capacity = %d, want 524288", d.Capacity())
	}
}

func TestNewRejectsBadSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	NewDeviceDir(config.CXLConfig{DirSets: 3, DirWays: 1, DirSlices: 1}, 0, anyLines)
}

func TestNewRejectsBadSlices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two slices")
		}
	}()
	NewDeviceDir(config.CXLConfig{DirSets: 4, DirWays: 1, DirSlices: 3}, 0, anyLines)
}

func TestNewRejectsWideSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 17 ways")
		}
	}()
	// The 4-line domain takes the dense layout, which orders nothing, but
	// the configuration is still beyond what a recency word orders.
	NewDeviceDir(config.CXLConfig{DirSets: 4, DirWays: 17, DirSlices: 1}, 0, 4)
}

// Property: Update/Remove/RemoveSharer keep a shadow ledger exactly in sync.
func TestDirectoryLedgerProperty(t *testing.T) {
	d := tiny()
	shadow := map[config.Addr]Entry{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		line := config.Addr(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			mask := rng.Intn(15) + 1
			var ss SharerSet
			for h := 0; h < 4; h++ {
				if mask&(1<<h) != 0 {
					ss = ss.With(h)
				}
			}
			e := Entry{State: DirShared, Sharers: ss}
			bi, ev := d.Update(line, e)
			shadow[line] = e
			if ev {
				delete(shadow, bi.Line)
			}
		case 1:
			e := Entry{State: DirModified, Owner: int16(rng.Intn(4))}
			bi, ev := d.Update(line, e)
			shadow[line] = e
			if ev {
				delete(shadow, bi.Line)
			}
		case 2:
			d.Remove(line)
			delete(shadow, line)
		default:
			h := rng.Intn(4)
			remains := d.RemoveSharer(line, h)
			if e, ok := shadow[line]; ok {
				switch e.State {
				case DirShared:
					e.Sharers = e.Sharers.Without(h)
					if e.Sharers.Empty() {
						delete(shadow, line)
					} else {
						shadow[line] = e
					}
				case DirModified:
					if int(e.Owner) == h {
						delete(shadow, line)
					}
				}
			}
			if _, ok := shadow[line]; ok != remains {
				t.Fatalf("RemoveSharer(%d,%d) remains=%v, shadow says %v", line, h, remains, ok)
			}
		}
	}
	if d.Occupancy() != len(shadow) {
		t.Fatalf("occupancy %d, shadow %d", d.Occupancy(), len(shadow))
	}
	for line, want := range shadow {
		got, ok := d.Lookup(line)
		if !ok || got != want {
			t.Fatalf("line %d: dir %+v/%v, shadow %+v", line, got, ok, want)
		}
	}
}
