// The Zipf sampler's constants, h, hinv and rejection loop are ported from
// math/rand/zipf.go of the Go standard library, under the notice in rand.go.

package trace

import (
	"fmt"
	"math"
	"sync"
)

// minZipfS is the smallest skew NewZipf uses; rand.NewZipf requires s > 1.
const minZipfS = 1.05

// Zipf draws ranks from a Source exactly as rand.Zipf (with v = 1) draws
// them over rand.New of the same state: one Float64 per trial of the
// rejection-inversion loop of Hörmann and Derflinger, and the same rank.
//
// rand.Zipf spends a math.Exp and a math.Log (hinv) on every trial. Here a
// table shared by every sampler of the same (skew, n) resolves most trials
// from ur, the trial's point on the h axis, alone; see zipfTable.
type Zipf struct {
	src *Source
	t   *zipfTable
}

// NewZipf returns a Zipf sampler over ranks [0, n) drawing from s, with
// skews below the usable minimum raised to it. Building one draws nothing.
// It panics if n < 1.
func NewZipf(s *Source, skew float64, n int64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("trace: NewZipf over n = %d ranks, want n ≥ 1", n))
	}
	return &Zipf{src: s, t: zipfTableFor(max(skew, minZipfS), uint64(n-1))}
}

// Uint64 returns the next rank, as (*rand.Zipf).Uint64.
func (z *Zipf) Uint64() uint64 {
	t := z.t
	for {
		r := z.src.Float64() // r on [0,1]
		ur := t.hxm + r*t.hx0minusHxm
		if k, ok := t.draw(ur); ok {
			return uint64(k)
		}
	}
}

// Pick draws a rank in [0, n): from z when the generator built one, else
// uniformly.
func (s *Source) Pick(z *Zipf, n int64) int64 {
	if z != nil {
		return int64(z.Uint64())
	}
	return s.Int63n(n)
}

// zipfShape is rand.Zipf's state without its Rand: the constants
// rand.NewZipf derives from (s, v, imax), and h and hinv.
type zipfShape struct {
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

// newZipfShape computes the constants as rand.NewZipf does, for s > 1 and
// v ≥ 1.
func newZipfShape(s float64, v float64, imax uint64) zipfShape {
	var z zipfShape
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *zipfShape) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfShape) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// accept is the right-hand side of the loop's second acceptance test for
// rank k, ur ≥ accept(k).
func (z *zipfShape) accept(k float64) float64 {
	return z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
}

// trial is one pass of rand.Zipf's loop for the point ur: the rank and
// whether the loop stops there.
func (z *zipfShape) trial(ur float64) (k float64, ok bool) {
	x := z.hinv(ur)
	k = math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	return k, ur >= z.accept(k)
}

// zipfMaxRows caps a table's rows: ranks past it take the exact path.
// zipfGuidePerRow is the guide's cells per row, and zipfSettled marks a
// guide cell that lies wholly in one rank's accepting bracket.
const (
	zipfMaxRows     = 4096
	zipfGuidePerRow = 4
	zipfSettled     = 1 << 15
)

// zipfMargin scales the guard band around each bound: a trial whose ur lies
// within zipfMargin·(x+v) of the bound x, measured on the x axis, takes the
// exact path. hinv's Exp/Log error is about 1e-14·(x+v), so the band
// settles the right side of every bound with room to spare; it also absorbs
// the error of computing the bounds through h.
const zipfMargin = 1e-7

// zipfRow is one rank k's brackets on the ur axis. h is increasing, so ur in
// [bot, top) means hinv(ur) rounds to k. There, ur ≥ acc means the loop
// stops at k and ur < rej means it draws again; between them, as outside
// [bot, top), the trial takes the exact path.
type zipfRow struct {
	bot, top float64 // h(k−½ + margin), h(k+½ − margin)
	rej, acc float64 // min(accept(k), h(k−s ∓ margin))
}

// zipfTable is the immutable per-(skew, n) state every sampler of that
// shape shares: rand's constants, a row per rank up to zipfMaxRows, and a
// guide from ur to the rows that can hold it.
type zipfTable struct {
	zipfShape
	rows  []zipfRow // one per rank
	guide []uint16  // by cell(ur): where to search rows; zipfSettled: the rank
	base  float64   // rows[0].bot
	scale float64   // guide cells per unit of ur
}

// draw resolves the trial at ur from the table, or takes the exact path.
// It returns what trial(ur) returns whenever the loop stops, and the same
// verdict otherwise.
func (t *zipfTable) draw(ur float64) (float64, bool) {
	i := t.cell(ur)
	g := t.guide[i]
	if g&zipfSettled != 0 {
		return float64(g &^ zipfSettled), true
	}
	// The last row whose bot ≤ ur lies in [guide[i], guide[i+1]].
	lo, hi := int(g), int(t.guide[i+1]&^zipfSettled)
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if ur >= t.rows[mid].bot {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if row := &t.rows[lo]; ur >= row.bot && ur < row.top {
		if ur >= row.acc {
			return float64(lo), true
		}
		if ur < row.rej {
			return 0, false
		}
	}
	return t.trial(ur)
}

// cell maps ur to its guide cell. It is non-decreasing in ur (float
// subtraction, scaling and truncation all round monotonically), so a bound
// in a lower cell than ur lies below ur.
func (t *zipfTable) cell(ur float64) int {
	f := (ur - t.base) * t.scale
	if !(f > 0) {
		return 0
	}
	if last := float64(len(t.guide) - 2); f >= last {
		return len(t.guide) - 2
	}
	return int(f)
}

// newZipfTable builds the table for skew s > 1 over ranks [0, imax].
func newZipfTable(s float64, imax uint64) *zipfTable {
	t := &zipfTable{zipfShape: newZipfShape(s, 1, imax)}
	n := int(min(imax, zipfMaxRows-1)) + 1
	// band returns h on either side of the bound x.
	band := func(x float64) (lo, hi float64) {
		d := zipfMargin * (x + t.v)
		return t.h(x - d), t.h(x + d)
	}
	t.rows = make([]zipfRow, n)
	for k := 0; k <= n; k++ {
		kf := float64(k)
		lo, hi := band(kf - 0.5) // the bound between ranks k−1 and k
		if k > 0 {
			t.rows[k-1].top = lo
		}
		if k == n {
			break
		}
		r := &t.rows[k]
		r.bot = hi
		lo, hi = band(kf - t.s)
		acc := t.accept(kf)
		r.rej, r.acc = min(acc, lo), min(acc, hi)
	}

	// guide[i] is the last rank whose bot lies in a cell below i, or 0;
	// guide[len−1] closes the last cell's range.
	t.guide = make([]uint16, zipfGuidePerRow*n+1)
	t.base = t.rows[0].bot
	t.scale = float64(len(t.guide)-1) / (t.rows[n-1].top - t.base)
	k := 0
	for i := range t.guide {
		for k+1 < n && t.cell(t.rows[k+1].bot) < i {
			k++
		}
		t.guide[i] = uint16(k)
	}
	t.guide[len(t.guide)-1] = uint16(n - 1)
	// A cell strictly between the cells of a row's max(bot, acc) and top
	// holds only points whose trial stops at that row's rank, which is
	// already the cell's entry.
	for _, r := range t.rows {
		for i := t.cell(max(r.bot, r.acc)) + 1; i < t.cell(r.top); i++ {
			t.guide[i] |= zipfSettled
		}
	}
	return t
}

// zipfTables holds the tables built so far, keyed by shape. Tables are
// immutable once built, so samplers on any goroutine share them. A sweep
// uses a handful of shapes; once the kept tables hold zipfMaxKeptRows rows
// in all (8 MiB), tables for new shapes are built but not kept.
var zipfTables struct {
	sync.Mutex
	m    map[zipfKey]*zipfTable
	rows int
}

type zipfKey struct {
	s    float64
	imax uint64
}

const zipfMaxKeptRows = 1 << 18

func zipfTableFor(s float64, imax uint64) *zipfTable {
	key := zipfKey{s, imax}
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if t, ok := zipfTables.m[key]; ok {
		return t
	}
	t := newZipfTable(s, imax)
	if zipfTables.m == nil {
		zipfTables.m = make(map[zipfKey]*zipfTable)
	}
	if zipfTables.rows+len(t.rows) <= zipfMaxKeptRows {
		zipfTables.m[key] = t
		zipfTables.rows += len(t.rows)
	}
	return t
}
