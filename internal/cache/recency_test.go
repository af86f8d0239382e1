package cache

import (
	"slices"
	"testing"

	"pipm/internal/config"
)

// order decodes the first n ranks of set's word, most recent first.
func (r *Recency) order(set, n int) []int {
	word := r.words[set] ^ identityOrder
	out := make([]int, n)
	for rank := range out {
		out[rank] = int(word >> (4 * rank) & 0xf)
	}
	return out
}

// FuzzRecency checks Touch and LRU against a most-recent-first slice. The
// first byte picks the associativity; each later byte touches one way of
// one of two sets. After every touch both sets' whole words must match the
// lists: the ways in order, then the untouched identity ranks above them.
func FuzzRecency(f *testing.F) {
	f.Add([]byte{16, 0, 15, 15, 7, 0, 1, 14, 15, 0x80, 0x8f, 3})
	f.Add([]byte{1, 0, 0x80, 0})
	f.Add([]byte{3, 2, 1, 0, 2, 2, 0x81, 1})
	f.Add([]byte{12, 11, 10, 0, 11, 5, 0x8b, 0x80, 6, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := int(data[0])%config.MaxWays + 1
		r := NewRecency(2, ways)
		var ref [2][]int
		for s := range ref {
			for w := 0; w < config.MaxWays; w++ {
				ref[s] = append(ref[s], w)
			}
		}
		for i, b := range data[1:] {
			set, way := int(b>>7), int(b&0x7f)%ways
			r.Touch(set, way)
			at := slices.Index(ref[set], way)
			ref[set] = slices.Insert(slices.Delete(ref[set], at, at+1), 0, way)
			for s := range ref {
				if got := r.order(s, config.MaxWays); !slices.Equal(got, ref[s]) {
					t.Fatalf("%d ways, touch %d (set %d way %d): set %d order %v, want %v", ways, i, set, way, s, got, ref[s])
				}
				if got := r.LRU(s); got != ref[s][ways-1] {
					t.Fatalf("%d ways, touch %d: set %d LRU %d, want %d", ways, i, s, got, ref[s][ways-1])
				}
			}
		}
	})
}

func TestRecencyIdentityAndBounds(t *testing.T) {
	r := NewRecency(3, 5)
	for s := 0; s < 3; s++ {
		if got := r.order(s, 5); !slices.Equal(got, []int{0, 1, 2, 3, 4}) || r.LRU(s) != 4 {
			t.Fatalf("fresh set %d: order %v LRU %d, want identity", s, got, r.LRU(s))
		}
	}
	for _, ways := range []int{0, config.MaxWays + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRecency accepted %d ways", ways)
				}
			}()
			NewRecency(1, ways)
		}()
	}
}
