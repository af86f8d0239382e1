package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// zipfShapes are (skew, n) pairs covering the generators' shapes, one and
// two ranks, the row cap and past it, and the skews' extremes; skews below
// minZipfS are raised to it.
var zipfShapes = []struct {
	skew float64
	n    int64
}{
	{1.05, 256}, {1.1, 1024}, {1.2, 4096}, {1.15, 60}, {1.3, 512},
	{0.5, 100}, {1.05, 1}, {2, 1}, {1.05, 2}, {3, 2}, {1.1, 3},
	{1.1, zipfMaxRows}, {1.1, zipfMaxRows + 1}, {1.05, 1 << 20}, {4, 1 << 20},
	{4, 5000}, {2.5, 1 << 40},
}

// refZipf is the sampler NewZipf replaces, over a math/rand Rand.
func refZipf(rng *rand.Rand, skew float64, n int64) *rand.Zipf {
	return rand.NewZipf(rng, max(skew, minZipfS), 1, uint64(n-1))
}

func TestZipfMatchesMathRand(t *testing.T) {
	for _, sh := range zipfShapes {
		for _, seed := range equivSeeds[:6] {
			s := NewSource(seed)
			ref := rand.New(rand.NewSource(seed))
			z, zref := NewZipf(s, sh.skew, sh.n), refZipf(ref, sh.skew, sh.n)
			for i := 0; i < 2000; i++ {
				if got, want := z.Uint64(), zref.Uint64(); got != want {
					t.Fatalf("skew %v n %d seed %d draw %d: Zipf = %d, want %d", sh.skew, sh.n, seed, i, got, want)
				}
			}
			checkTail(t, s, ref)
		}
	}
}

// TestZipfBoundsExact drives ur through every bound of every row, and the
// exact points those bounds guard, ±2 ulps, and requires the table path to
// agree with rand's loop body. Most of these points fall in a guard band,
// so the exact path runs here though a random draw almost never reaches it.
func TestZipfBoundsExact(t *testing.T) {
	for _, sh := range zipfShapes {
		tab := newZipfTable(max(sh.skew, minZipfS), uint64(sh.n-1))
		var points []float64
		for k, r := range tab.rows[:len(tab.rows)-1] {
			kf := float64(k)
			points = append(points, r.bot, r.top, r.rej, r.acc,
				tab.h(kf-0.5), tab.h(kf+0.5), tab.h(kf-tab.s), tab.accept(kf))
		}
		points = append(points, tab.hxm, tab.hxm+tab.hx0minusHxm)
		exact := 0
		for _, p := range points {
			for _, ur := range ulpsAround(p, 2) {
				k, ok := tab.draw(ur)
				wk, wok := tab.trial(ur)
				if ok != wok || ok && k != wk {
					t.Fatalf("skew %v n %d ur %v: table (%v, %v), exact (%v, %v)", sh.skew, sh.n, ur, k, ok, wk, wok)
				}
				if !tab.settles(ur) {
					exact++
				}
			}
		}
		if exact == 0 {
			t.Fatalf("skew %v n %d: no point took the exact path", sh.skew, sh.n)
		}
	}
}

// settles reports whether draw resolves ur from the table alone.
func (t *zipfTable) settles(ur float64) bool {
	i := t.cell(ur)
	if t.guide[i]&zipfSettled != 0 {
		return true
	}
	k := sort.Search(len(t.rows), func(j int) bool { return t.rows[j].bot > ur })
	r := t.rows[max(k-1, 0)]
	return ur >= r.bot && ur < r.top && (ur >= r.acc || ur < r.rej)
}

// ulpsAround returns x and its d nearest float64 neighbours on each side.
func ulpsAround(x float64, d int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < d; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// TestZipfTableShape checks the invariants draw relies on: rows in order on
// the ur axis; guide[i] the last rank whose bot lies in a cell below i; and
// a settled cell lying inside its rank's accepting bracket.
func TestZipfTableShape(t *testing.T) {
	for _, sh := range zipfShapes {
		tab := newZipfTable(max(sh.skew, minZipfS), uint64(sh.n-1))
		rows := tab.rows
		if want := min(sh.n, zipfMaxRows); int64(len(rows)) != want {
			t.Fatalf("skew %v n %d: %d rows, want %d", sh.skew, sh.n, len(rows), want)
		}
		for k, r := range rows {
			if !(r.bot < r.top) || k > 0 && !(rows[k-1].top < r.bot) || !(r.rej <= r.acc) {
				t.Fatalf("skew %v n %d: row %d out of order: %+v", sh.skew, sh.n, k, r)
			}
		}
		for i, g := range tab.guide {
			k := 0
			for k+1 < len(rows) && tab.cell(rows[k+1].bot) < i {
				k++
			}
			if i == len(tab.guide)-1 {
				k = len(rows) - 1
			}
			if got := int(g &^ zipfSettled); got != k {
				t.Fatalf("skew %v n %d: guide[%d] = %d, want %d", sh.skew, sh.n, i, got, k)
			}
			if r := rows[k]; g&zipfSettled != 0 && (tab.cell(max(r.bot, r.acc)) >= i || tab.cell(r.top) <= i) {
				t.Fatalf("skew %v n %d: guide[%d] settles rank %d across a bound", sh.skew, sh.n, i, k)
			}
		}
	}
}

// TestNewZipfDrawsNothing checks that building a sampler leaves the source
// untouched: llmserve caches one sampler per session count on that promise.
func TestNewZipfDrawsNothing(t *testing.T) {
	for _, sh := range zipfShapes {
		s := NewSource(7)
		s.Int63()
		before := *s
		NewZipf(s, sh.skew, sh.n)
		if *s != before {
			t.Fatalf("NewZipf(%v, %d) advanced the source", sh.skew, sh.n)
		}
	}
}

func TestNewZipfRejectsEmptyRange(t *testing.T) {
	for _, n := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("n = %d", n); !strings.Contains(msg, want) {
					t.Fatalf("NewZipf(n = %d) panic %q, want a message naming %q", n, msg, want)
				}
			}()
			NewZipf(NewSource(1), 1.1, n)
		}()
	}
}

// TestZipfSharedTables draws from samplers of the same shapes on several
// goroutines at once (run it under -race), each against its own math/rand
// reference.
func TestZipfSharedTables(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, sh := range zipfShapes[:5] {
				s := NewSource(seed)
				zref := refZipf(rand.New(rand.NewSource(seed)), sh.skew, sh.n)
				z := NewZipf(s, sh.skew, sh.n)
				for i := 0; i < 500; i++ {
					if got, want := z.Uint64(), zref.Uint64(); got != want {
						errs <- fmt.Errorf("seed %d skew %v n %d draw %d: %d, want %d", seed, sh.skew, sh.n, i, got, want)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func FuzzZipfMatchesMathRand(f *testing.F) {
	f.Add(int64(1), 1.05, int64(256))
	f.Add(int64(0), 1.1, int64(1024))
	f.Add(int64(-3), 1.2, int64(4096))
	f.Add(int64(42), 4.0, int64(1))
	f.Add(int64(1<<62), 1.0, int64(2))
	f.Add(int64(int32max), 2.5, int64(1<<20))
	f.Fuzz(func(t *testing.T, seed int64, skew float64, n int64) {
		if !(skew <= 4) || n < 1 || n > 1<<20 { // skews below minZipfS are raised to it
			t.Skip()
		}
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		z, zref := NewZipf(s, skew, n), refZipf(ref, skew, n)
		for i := 0; i < 64; i++ {
			if got, want := z.Uint64(), zref.Uint64(); got != want {
				t.Fatalf("draw %d: Zipf = %d, want %d", i, got, want)
			}
		}
		checkTail(t, s, ref)
	})
}

// BenchmarkZipf compares one Zipf draw with rand.Zipf over math/rand at the
// generators' shapes.
func BenchmarkZipf(b *testing.B) {
	for _, sh := range zipfShapes[:3] {
		name := fmt.Sprintf("s%g_n%d", sh.skew, sh.n)
		b.Run(name+"/source", func(b *testing.B) {
			z := NewZipf(NewSource(1), sh.skew, sh.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInt += int(z.Uint64())
			}
		})
		b.Run(name+"/mathrand", func(b *testing.B) {
			z := refZipf(rand.New(rand.NewSource(1)), sh.skew, sh.n)
			for i := 0; i < b.N; i++ {
				sinkInt += int(z.Uint64())
			}
		})
	}
}

// BenchmarkZipfTable times building a table with the most rows, the one-off
// cost the first sampler of a shape pays.
func BenchmarkZipfTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newZipfTable(1.05, 1<<20-1)
	}
}
