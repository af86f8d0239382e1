package coherence

import (
	"testing"

	"pipm/internal/config"
)

// packedDirs returns a dense and a set-associative directory, both over
// lines 0..15.
func packedDirs() []*DeviceDir {
	cfg := config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2}
	return []*DeviceDir{NewDeviceDir(cfg, 0, 16), NewDeviceDir(cfg, 0, anyLines)}
}

// allHosts returns a set holding hosts 0..hosts-1.
func allHosts(shift uint8, hosts int) SharerSet {
	s := NewSharerSet(shift)
	for h := 0; h < hosts; h++ {
		s = s.With(h)
	}
	return s
}

// canonical reports whether the packed store can hold e exactly: S with
// no owner, a count of at most config.MaxHosts and a shift that fits its
// field, or M with a zero sharer set.
func canonical(e Entry) bool {
	s := e.Sharers
	switch e.State {
	case DirShared:
		return e.Owner == 0 && s.count <= config.MaxHosts && s.shift <= maxShift
	case DirModified:
		return s == SharerSet{}
	}
	return false
}

// TestPackedEntryRoundTrip stores every canonical entry shape at its
// extremes and reads it back unchanged, slot by slot and through the
// directory API of both layouts.
func TestPackedEntryRoundTrip(t *testing.T) {
	full := allHosts(SharerShiftFor(config.MaxHosts), config.MaxHosts)
	if full.Count() != 256 || full.Shift() != 2 {
		t.Fatalf("summary set: count %d shift %d, want 256 and 2", full.Count(), full.Shift())
	}
	entries := []Entry{
		{State: DirModified, Owner: 0},
		{State: DirModified, Owner: config.MaxHosts - 1},
		{State: DirShared, Sharers: SharerSetOf(0, 63)},
		{State: DirShared, Sharers: allHosts(0, 64)},
		{State: DirShared, Sharers: full},
	}
	for _, d := range packedDirs() {
		if got := d.get(0); got != (Entry{}) {
			t.Fatalf("empty slot reads %+v", got)
		}
		for i, e := range entries {
			d.put(i, e)
			if got := d.get(i); got != e {
				t.Errorf("slot %d: put %+v, got %+v", i, e, got)
			}
			line := config.Addr(i)
			d.Update(line, e)
			if got, ok := d.Peek(line); !ok || got != e {
				t.Errorf("line %d: Update %+v, Peek %+v, %v", line, e, got, ok)
			}
			if got, ok := d.Remove(line); !ok || got != e {
				t.Errorf("line %d: Remove %+v, %v; want %+v", line, got, ok, e)
			}
			if got, ok := d.Peek(line); ok || got != (Entry{}) {
				t.Errorf("line %d: removed entry reads %+v, %v", line, got, ok)
			}
		}
	}
}

// TestPackedEntryRejectsNonCanonical: an entry the packed store cannot
// hold exactly panics rather than losing a field.
func TestPackedEntryRejectsNonCanonical(t *testing.T) {
	over := allHosts(2, config.MaxHosts).With(0) // count 257
	for _, e := range []Entry{
		{State: DirShared, Owner: 3, Sharers: SharerSetOf(0, 1)},
		{State: DirModified, Owner: 1, Sharers: SharerSetOf(0, 1)},
		{State: DirModified, Owner: 1, Sharers: NewSharerSet(2)},
		{State: DirShared, Sharers: over},
		{State: DirShared, Sharers: SharerSetOf(maxShift+1, 5)},
		{State: DirInvalid},
		{State: 3},
	} {
		for _, d := range packedDirs() {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("put(%+v) did not panic", e)
					}
				}()
				d.put(0, e)
			}()
		}
	}
}

// FuzzPackedEntry builds an entry from a state, an owner, a host list and
// a region shift. A canonical entry must read back unchanged from a slot,
// from Update/Peek/Lookup in both layouts, and after RemoveSharer must
// read as the Entry-level removal would leave it; any other valid-state
// entry must panic on put.
func FuzzPackedEntry(f *testing.F) {
	all := make([]byte, config.MaxHosts)
	for h := range all {
		all[h] = byte(h)
	}
	f.Add(uint8(DirInvalid), int16(0), []byte{}, uint8(0))
	f.Add(uint8(DirModified), int16(0), []byte{}, uint8(0))
	f.Add(uint8(DirModified), int16(255), []byte{}, uint8(0))
	f.Add(uint8(DirShared), int16(0), []byte{63}, uint8(0))
	f.Add(uint8(DirShared), int16(0), all, uint8(2))
	f.Add(uint8(DirShared), int16(0), []byte{7, 9, 200}, uint8(1))
	f.Add(uint8(DirShared), int16(1), []byte{1}, uint8(0))
	f.Add(uint8(DirModified), int16(1), []byte{1}, uint8(0))
	f.Add(uint8(3), int16(0), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, state uint8, owner int16, hosts []byte, shift uint8) {
		shift %= maxShift + 2 // one shift beyond the field
		s := NewSharerSet(shift)
		for _, h := range hosts {
			s = s.With(int(h) % (64 << shift))
		}
		e := Entry{State: DirState(state % 4), Owner: owner, Sharers: s}
		for _, d := range packedDirs() {
			if !canonical(e) {
				if e.State == DirInvalid {
					continue
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("put(%+v) did not panic", e)
						}
					}()
					d.put(0, e)
				}()
				continue
			}
			d.put(1, e)
			if got := d.get(1); got != e {
				t.Fatalf("put %+v, got %+v", e, got)
			}
			d.Update(5, e)
			if got, ok := d.Lookup(5); !ok || got != e {
				t.Fatalf("Update %+v, Lookup %+v, %v", e, got, ok)
			}
			h := int(owner) & 0xff
			if len(hosts) > 0 {
				h = int(hosts[0]) % (64 << shift)
			}
			want, remains := e, true
			switch e.State {
			case DirShared:
				want.Sharers = e.Sharers.Without(h)
				remains = !want.Sharers.Empty()
			case DirModified:
				remains = int(e.Owner) != h
			}
			if !remains {
				want = Entry{}
			}
			if got := d.RemoveSharer(5, h); got != remains {
				t.Fatalf("RemoveSharer(%+v, %d) = %v, want %v", e, h, got, remains)
			}
			if got, ok := d.Peek(5); ok != remains || got != want {
				t.Fatalf("after RemoveSharer(%+v, %d): %+v, %v; want %+v, %v", e, h, got, ok, want, remains)
			}
			if occ := d.Occupancy(); (occ == 1) != remains {
				t.Fatalf("occupancy %d after RemoveSharer(%+v, %d)", occ, e, h)
			}
		}
	})
}
