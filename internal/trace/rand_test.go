package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// refGeometric is the sampler the generators used before Source: a capped
// Bernoulli loop over *rand.Rand. Geometric must reproduce it draw for draw.
func refGeometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (mean + 1)
	n := 0
	for rng.Float64() >= p && n < 1024 {
		n++
	}
	return n
}

// equivSeeds covers zero (aliased to a fixed seed), negatives, multiples of
// 2³¹−1 (which reduce to zero), and seeds at or above 2⁶².
var equivSeeds = []int64{
	0, 1, 42, -1, -7, -int32max, math.MinInt64,
	int32max, 2 * int32max, 3 * int32max, 89482311,
	1 << 62, 1<<62 + 12345, math.MaxInt64,
}

var (
	equivProbs = []float64{
		0, 1e-300, 1.0 / (1 << 63), 0.02, 0.05, 0.15, 0.25, 0.5, 0.85, 0.9,
		0.88 + 0.03, 1 - 1e-16, math.Nextafter(1, 0), 1, 1.5, -0.1, math.NaN(),
	}
	equivMeans = []float64{
		-1, 0, 1e-9, 0.5, 1, 3, 15, 16, 31, 32, 127, 1e12,
		math.Inf(1), math.NaN(),
	}
	equivBounds = []int64{
		1, 2, 3, 7, 64, 100, 129, 1 << 20, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		1<<40 + 3, 1 << 62, 1<<62 + 1, math.MaxInt64,
	}
)

// checkTail requires the next rngLen draws of both streams to agree, which
// covers the whole feedback register.
func checkTail(t *testing.T, s *Source, ref *rand.Rand) {
	t.Helper()
	for i := 0; i < rngLen; i++ {
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("tail draw %d: Int63 = %d, math/rand %d", i, got, want)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range equivSeeds {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, got, want)
			}
			if got, want := s.int31(), ref.Int31(); got != want {
				t.Fatalf("seed %d draw %d: Int31 = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
		}
		for _, n := range equivBounds {
			for i := 0; i < 8; i++ {
				if got, want := s.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d: Int63n(%d) = %d, want %d", seed, n, got, want)
				}
				if got, want := s.Intn(int(n)), ref.Intn(int(n)); got != want {
					t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, n, got, want)
				}
				if n <= int32max {
					if got, want := s.int31n(int32(n)), ref.Int31n(int32(n)); got != want {
						t.Fatalf("seed %d: Int31n(%d) = %d, want %d", seed, n, got, want)
					}
				}
			}
		}
		for _, p := range equivProbs {
			b := NewBernoulli(p)
			for i := 0; i < 20; i++ {
				if got, want := b.Draw(s), ref.Float64() < p; got != want {
					t.Fatalf("seed %d: Bernoulli(%v) = %v, want %v", seed, p, got, want)
				}
			}
		}
		for _, mean := range equivMeans {
			g := NewGeometric(mean)
			for i := 0; i < 4; i++ {
				if got, want := g.Draw(s), refGeometric(ref, mean); got != want {
					t.Fatalf("seed %d: Geometric(%v) = %d, want %d", seed, mean, got, want)
				}
			}
		}
		checkTail(t, s, ref)
	}
}

// schrage is math/rand's seedrand: x ← 48271·x mod (2³¹−1) by Schrage's
// method, the division-based form mulmod replaces.
func schrage(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedStepMatchesSchrage checks the folded step against Schrage's form
// for every state the seeding generator can be in, [1, 2³¹−2].
func TestSeedStepMatchesSchrage(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive over 2³¹ states")
	}
	for x := int32(1); x < int32max; x++ {
		if got, want := mulmod(seedA, uint64(x)), schrage(x); got != uint64(want) {
			t.Fatalf("x = %d: folded step %d, Schrage %d", x, got, want)
		}
	}
}

// TestSeedChainStep checks that one seedA³ step is three single steps, and
// that seedA21..seedA23 take a seed to draws 21, 22 and 23.
func TestSeedChainStep(t *testing.T) {
	xs := []int32{1, 2, 3, 48271, 44488, 44487, 89482311, int32max - 2, int32max - 1}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		xs = append(xs, 1+rng.Int31n(int32max-1))
	}
	for _, x := range xs {
		y := x
		var draws [24]int32
		for j := 1; j < len(draws); j++ {
			y = schrage(y)
			draws[j] = y
		}
		if got := mulmod(seedA3, uint64(x)); got != uint64(draws[3]) {
			t.Fatalf("x = %d: seedA³ step %d, three steps %d", x, got, draws[3])
		}
		for j, a := range map[int]uint64{21: seedA21, 22: seedA22, 23: seedA23} {
			if got := mulmod(a, uint64(x)); got != uint64(draws[j]) {
				t.Fatalf("x = %d: seedA^%d step %d, %d steps %d", x, j, got, j, draws[j])
			}
		}
	}
}

// TestSeedMatchesMathRand compares the whole register after Seed with
// math/rand's for equivSeeds and 10k more seeds across the int64 range.
func TestSeedMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), equivSeeds...)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, int64(rng.Uint64()), int64(i)-5000)
	}
	var s Source
	for _, seed := range seeds {
		s.Seed(seed)
		checkTail(t, &s, rand.New(rand.NewSource(seed)))
	}
}

// TestUnitTwoThresholds checks the one-draw, two-threshold comparison chain
// the generators use (r < a; r < a+b), with the second threshold built from
// the same float64 sum.
func TestUnitTwoThresholds(t *testing.T) {
	pairs := [][2]float64{{0.85, 0.03}, {0.7, 0.2}, {0.25, 0}, {0.6, 0.3}, {0.1, 0.1}, {0.5, 0.5}}
	for _, seed := range equivSeeds {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for _, pr := range pairs {
			first, second := NewBernoulli(pr[0]), NewBernoulli(pr[0]+pr[1])
			for i := 0; i < 200; i++ {
				u, f := s.Unit(), ref.Float64()
				if first.Hit(u) != (f < pr[0]) || second.Hit(u) != (f < pr[0]+pr[1]) {
					t.Fatalf("seed %d %v: Unit %d vs Float64 %v disagree", seed, pr, u, f)
				}
			}
		}
		checkTail(t, s, ref)
	}
}

// TestZipfOverSharedState checks that Zipf draws interleave with Source's
// own methods exactly as rand.Zipf's do over math/rand.
func TestZipfOverSharedState(t *testing.T) {
	for _, seed := range equivSeeds {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		z := NewZipf(s, 1.1, 4096)
		zref := rand.NewZipf(ref, 1.1, 1, 4095)
		g := NewGeometric(16)
		for i := 0; i < 100; i++ {
			if got, want := z.Uint64(), zref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Zipf = %d, want %d", seed, i, got, want)
			}
			if got, want := g.Draw(s), refGeometric(ref, 16); got != want {
				t.Fatalf("seed %d draw %d: Geometric = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Intn(64), ref.Intn(64); got != want {
				t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, got, want)
			}
		}
		checkTail(t, s, ref)
	}
}

// TestThresholdEdges checks x < threshold(p) ⇔ float64(x)/2⁶³ < p at and
// around each threshold, for probabilities at the exact-conversion limit,
// the ±1-ulp neighbours of several values, and near the redraw boundary.
func TestThresholdEdges(t *testing.T) {
	if f := float64(redrawAt-1) / (1 << 63); f >= 1 {
		t.Fatalf("draw redrawAt-1 maps to %v, want < 1", f)
	}
	if f := float64(int64(redrawAt)) / (1 << 63); f != 1 {
		t.Fatalf("draw redrawAt maps to %v, want 1", f)
	}
	var ps []float64
	for _, x := range []int64{
		1, 2, 3, 1<<52 - 1, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2,
		1<<53 + 3, 1 << 54, 3 << 60, 1<<62 - 1, 1 << 62, 1<<62 + 1<<10,
		redrawAt - 1<<10, redrawAt - 1, redrawAt,
	} {
		v := float64(x) / (1 << 63)
		ps = append(ps, v, math.Nextafter(v, 0), math.Nextafter(v, 1))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := rng.Float64()
		if i%2 == 1 {
			v = math.Ldexp(v, -rng.Intn(70)) // small probabilities too
		}
		ps = append(ps, v, math.Nextafter(v, 0), math.Nextafter(v, 1))
	}
	ps = append(ps, equivProbs...)
	for _, p := range ps {
		th := threshold(p)
		if th < 0 || th > redrawAt {
			t.Fatalf("threshold(%v) = %d outside [0, redrawAt]", p, th)
		}
		for _, x := range []int64{th - 2, th - 1, th, th + 1, th + 2} {
			if x < 0 || x >= redrawAt {
				continue
			}
			if got, want := x < th, float64(x)/(1<<63) < p; got != want {
				t.Fatalf("p=%v threshold %d: draw %d below = %v, Float64 comparison %v", p, th, x, got, want)
			}
		}
	}
}

// setNextDraw rewrites the feedback register so that s's next raw 64-bit
// draw is x.
func setNextDraw(s *Source, x int64) {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.vec[feed] = x - s.vec[tap]
}

// TestRedrawBoundary forces draws on either side of the 1.0 rounding
// boundary and compares against math/rand's Rand over a copy of the same
// state, so the redraw path is exercised without waiting 2⁵⁴ draws for it.
func TestRedrawBoundary(t *testing.T) {
	for _, x := range []int64{redrawAt - 1, redrawAt, redrawAt + 1, rngMask, -1, math.MinInt64 + redrawAt} {
		for _, mean := range []float64{0.5, 16, 1e12} {
			s := NewSource(11)
			setNextDraw(s, x)
			c1, c2, c3 := *s, *s, *s

			if got, want := s.Float64(), rand.New(&c1).Float64(); got != want {
				t.Fatalf("draw %#x: Float64 = %v, want %v", x, got, want)
			}
			checkTail(t, s, rand.New(&c1))

			s = NewSource(11)
			setNextDraw(s, x)
			b := NewBernoulli(0.5)
			if got, want := b.Draw(s), rand.New(&c2).Float64() < 0.5; got != want {
				t.Fatalf("draw %#x: Bernoulli = %v, want %v", x, got, want)
			}
			checkTail(t, s, rand.New(&c2))

			s = NewSource(11)
			setNextDraw(s, x)
			ref := rand.New(&c3)
			if got, want := NewGeometric(mean).Draw(s), refGeometric(ref, mean); got != want {
				t.Fatalf("draw %#x: Geometric(%v) = %d, want %d", x, mean, got, want)
			}
			checkTail(t, s, ref)
		}
	}
}

// TestGeometricEveryOffset starts Geometric draws at every position of
// the lag register, so each run boundary (the tap or the feed index
// wrapping, and the trial cap at mean 1e5) falls at every point of a draw.
func TestGeometricEveryOffset(t *testing.T) {
	for _, mean := range []float64{0, 0.5, 16, 32, 1e5, math.NaN()} {
		g := NewGeometric(mean)
		for off := 0; off < rngLen; off++ {
			s := NewSource(5)
			ref := rand.New(rand.NewSource(5))
			for i := 0; i < off; i++ {
				s.Int63()
				ref.Int63()
			}
			for i := 0; i < 3; i++ {
				if got, want := g.Draw(s), refGeometric(ref, mean); got != want {
					t.Fatalf("offset %d draw %d: Geometric(%v) = %d, want %d", off, i, mean, got, want)
				}
			}
			checkTail(t, s, ref)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), 16.0, 0.15, int64(64))
	f.Add(int64(0), 32.0, 0.85, int64(100))
	f.Add(int64(-5), 0.0, 1.0, int64(1<<31))
	f.Add(int64(1<<62), 1e12, 0.0, int64(3))
	f.Add(int64(2*int32max), -3.0, -1.0, int64(-4))
	f.Fuzz(func(t *testing.T, seed int64, mean, p float64, n int64) {
		s := NewSource(seed)
		ref := rand.New(rand.NewSource(seed))
		g, b := NewGeometric(mean), NewBernoulli(p)
		for i := 0; i < 16; i++ {
			if got, want := g.Draw(s), refGeometric(ref, mean); got != want {
				t.Fatalf("Geometric(%v) = %d, want %d", mean, got, want)
			}
			if got, want := b.Draw(s), ref.Float64() < p; got != want {
				t.Fatalf("Bernoulli(%v) = %v, want %v", p, got, want)
			}
			if n > 0 {
				if got, want := s.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("Int63n(%d) = %d, want %d", n, got, want)
				}
				if got, want := s.Intn(int(n)), ref.Intn(int(n)); got != want {
					t.Fatalf("Intn(%d) = %d, want %d", n, got, want)
				}
			}
		}
		checkTail(t, s, ref)
	})
}

// BenchmarkSeed compares seeding a Source with building math/rand's source
// for the same seed.
func BenchmarkSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		var s Source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		sinkInt += int(s.vec[0])
	})
	b.Run("mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt += int(rand.NewSource(int64(i)).Int63())
		}
	})
}

// BenchmarkGeometric compares one Geometric draw with the capped Float64
// loop over *rand.Rand it replaces, at the generators' typical means.
func BenchmarkGeometric(b *testing.B) {
	for _, mean := range []float64{16, 32} {
		b.Run(fmt.Sprintf("mean%g/source", mean), func(b *testing.B) {
			s, g := NewSource(1), NewGeometric(mean)
			for i := 0; i < b.N; i++ {
				sinkInt += g.Draw(s)
			}
		})
		b.Run(fmt.Sprintf("mean%g/mathrand", mean), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				sinkInt += refGeometric(rng, mean)
			}
		})
	}
}

var sinkInt int
