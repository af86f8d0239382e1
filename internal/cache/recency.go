package cache

import (
	"fmt"
	"math/bits"

	"pipm/internal/config"
)

// Recency holds the LRU order of every set of a set-associative structure
// in one word per set: the set's way indices as 4-bit nibbles, the most
// recent at rank 0 (the low nibble) and the least recent at rank ways-1
// (DESIGN.md §16.3). Touch moves a way to the front; LRU reads the back
// without a scan.
//
// Every structure picks the first invalid way before it asks for the LRU
// way, so by then every way of the set has been touched at least once and
// the word orders them exactly as per-way timestamps would.
//
// Words are stored XOR identityOrder, so a zeroed word is the identity
// order 0, 1, …, 15 and building a Recency needs no fill loop.
type Recency struct {
	words    []uint64 // per set: order ^ identityOrder
	lruShift uint     // bit offset of rank ways-1
}

const (
	identityOrder = 0xfedcba9876543210 // rank r holds way r
	nibbleOnes    = 0x1111111111111111
	nibbleHighs   = 0x8888888888888888
)

// NewRecency builds the recency words of sets sets of ways ways each. It
// panics on an associativity outside 1..config.MaxWays (config.Validate
// rejects those first).
func NewRecency(sets, ways int) Recency {
	if ways < 1 || ways > config.MaxWays {
		panic(fmt.Sprintf("cache: %d ways is outside 1..%d", ways, config.MaxWays))
	}
	return Recency{words: make([]uint64, sets), lruShift: uint(4 * (ways - 1))}
}

// Touch makes way the most recent way of set: it shifts the more recent
// ranks up by one and puts way at rank 0. Touching the most recent way
// writes nothing.
func (r *Recency) Touch(set, way int) {
	order, w := r.words[set]^identityOrder, uint64(way)
	if order&0xf == w {
		return
	}
	// The way's nibble is the only zero nibble of x; the SWAR zero test
	// flags its high bit (a borrow can flag only nibbles above it).
	x := order ^ w*nibbleOnes
	rank := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) & 60
	newer := uint64(1)<<rank - 1 // the ranks before the way's
	r.words[set] = (order&^(newer<<4|0xf) | (order&newer)<<4 | w) ^ identityOrder
}

// LRU returns the least recently touched way of set.
func (r *Recency) LRU(set int) int {
	return int((r.words[set] ^ identityOrder) >> r.lruShift & 0xf)
}
