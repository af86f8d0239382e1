// Package check is an explicit-state model checker for the PIPM coherence
// protocol, reproducing the paper's Murφ verification (§5.1.4): exhaustive
// enumeration of a small protocol instance proving the Single-Writer
// Multiple-Reader invariant, per-location sequential consistency (every
// read returns the latest write), and absence of stuck states.
//
// The model is up to MaxLines cache lines of one shared page, shared by up
// to MaxHosts hosts. One line reproduces the paper's Murφ run; two lines
// are the first instance where lines of the same page interact through the
// shared page-ownership state (promote/revoke affects both lines at once,
// incremental migration flips per-line bits independently), and four hosts
// is the smallest count where two disjoint host pairs can race for the
// same page. Each protocol request is atomic (the paper's implementation
// serializes request handling with a lock-based scheme, so atomic
// transitions are faithful). Versions are abstracted to one bit per storage
// location — "holds the latest value" — which bounds the state space while
// preserving exactly the property SC per location needs.
//
// Run explores the space with a sharded worker pool: states are packed
// into 64-bit keys, each worker owns a shard of the visited set (no locks —
// successors are routed to their owning shard between BFS levels), and the
// frontier is expanded level-synchronously so counts and violation
// reporting are deterministic regardless of worker count or goroutine
// scheduling. Workers: 1 is the sequential checker.
package check

import (
	"fmt"
	"runtime"
	"sync"
)

// Instance bounds. Host IDs and line indices are packed into 3-bit fields;
// widening either is a representation change, so the bounds are explicit
// constants rather than options.
const (
	MaxHosts = 4
	MaxLines = 2
)

// CacheState is a host's state for one modelled line (MSI + PIPM's ME).
type CacheState uint8

const (
	I CacheState = iota
	S
	M
	ME
)

func (c CacheState) String() string {
	return [...]string{"I", "S", "M", "ME"}[c]
}

// none marks "no host" in owner fields.
const none = -1

// Line is one cache line's global protocol state.
type Line struct {
	Cache    [MaxHosts]CacheState // per-host cache state (unused slots stay I)
	CacheUTD [MaxHosts]bool       // cache copy holds the latest version
	CXLUTD   bool                 // CXL memory holds the latest version
	LocalUTD bool                 // the bit-owner's local memory holds the latest
	BitOwner int8                 // host whose local DRAM holds the line (I'), or none
}

// State is one global state of the instance: up to MaxLines lines of the
// *same* page, coupled through PageOwn (partial migration is a
// page-granularity decision; in-memory bits are per line).
type State struct {
	Lines   [MaxLines]Line
	PageOwn int8 // host the page is partially migrated to, or none
}

// EventKind enumerates stimuli.
type EventKind uint8

const (
	EvRead EventKind = iota
	EvWrite
	EvEvict
	EvPromote
	EvRevoke
)

func (k EventKind) String() string {
	return [...]string{"Read", "Write", "Evict", "Promote", "Revoke"}[k]
}

// Event is a protocol stimulus. Promote and Revoke are page events; Line is
// meaningful only for Read/Write/Evict.
type Event struct {
	Kind EventKind
	Host int
	Line int
}

func (e Event) String() string {
	if e.Kind == EvPromote || e.Kind == EvRevoke {
		return fmt.Sprintf("%v(h%d)", e.Kind, e.Host)
	}
	return fmt.Sprintf("%v(h%d,l%d)", e.Kind, e.Host, e.Line)
}

// Violation describes an invariant failure with its witness path.
type Violation struct {
	Rule  string
	State State
	Path  []Event
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s violated after %v (state %+v)", v.Rule, v.Path, v.State)
}

// Options selects the protocol variant and instance size.
type Options struct {
	Hosts   int  // 2..MaxHosts
	Lines   int  // 1..MaxLines (lines of one shared page)
	PIPM    bool // false = base MSI over CXL-DSM only (no migration events)
	Workers int  // worker/shard count; 0 = GOMAXPROCS, 1 = sequential
}

// Result summarizes a run.
type Result struct {
	States      int
	Transitions int
	Depth       int // BFS depth of the deepest reachable state
	Workers     int
	// DeadlockFree is true when exploration completed and every reachable
	// state has at least one enabled event (reads are always enabled, so a
	// correct model never deadlocks; the check matches the Murφ run).
	DeadlockFree bool
}

// ------------------------------------------------------------- packing --

// pkey is a State packed into 64 bits: per line 17 bits (4 hosts × (2-bit
// cache state + 1 UTD bit) + CXLUTD + LocalUTD + 3-bit BitOwner), then a
// 3-bit PageOwn — 37 bits for the full 2-line instance.
type pkey uint64

const (
	bitsPerHost = 3   // cache state (2) + UTD (1)
	ownNone     = 0x7 // BitOwner/PageOwn "none" in packed form
)

func encode(s *State) pkey {
	var k uint64
	shift := uint(0)
	for l := 0; l < MaxLines; l++ {
		ln := &s.Lines[l]
		for h := 0; h < MaxHosts; h++ {
			f := uint64(ln.Cache[h])
			if ln.CacheUTD[h] {
				f |= 4
			}
			k |= f << shift
			shift += bitsPerHost
		}
		var f uint64
		if ln.CXLUTD {
			f |= 1
		}
		if ln.LocalUTD {
			f |= 2
		}
		k |= f << shift
		shift += 2
		k |= packOwner(ln.BitOwner) << shift
		shift += 3
	}
	k |= packOwner(s.PageOwn) << shift
	return pkey(k)
}

func decode(k pkey) State {
	var s State
	shift := uint(0)
	for l := 0; l < MaxLines; l++ {
		ln := &s.Lines[l]
		for h := 0; h < MaxHosts; h++ {
			f := (uint64(k) >> shift) & 7
			ln.Cache[h] = CacheState(f & 3)
			ln.CacheUTD[h] = f&4 != 0
			shift += bitsPerHost
		}
		f := (uint64(k) >> shift) & 3
		ln.CXLUTD = f&1 != 0
		ln.LocalUTD = f&2 != 0
		shift += 2
		ln.BitOwner = unpackOwner((uint64(k) >> shift) & 7)
		shift += 3
	}
	s.PageOwn = unpackOwner((uint64(k) >> shift) & 7)
	return s
}

func packOwner(o int8) uint64 {
	if o == none {
		return ownNone
	}
	return uint64(o)
}

func unpackOwner(f uint64) int8 {
	if f == ownNone {
		return none
	}
	return int8(f)
}

// hash spreads a packed key over shards (fibonacci hashing; the packed
// fields are heavily correlated, so identity sharding would skew).
func (k pkey) hash() uint64 {
	x := uint64(k) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}

// --------------------------------------------------------- transitions --

// model carries the instance options through the transition functions.
type model struct {
	hosts int
	lines int
	pipm  bool
}

func initialState() State {
	s := State{PageOwn: none}
	for l := range s.Lines {
		s.Lines[l].CXLUTD = true
		s.Lines[l].BitOwner = none
	}
	return s
}

// enabled lists the stimuli applicable in s.
func (m *model) enabled(s *State) []Event {
	evs := make([]Event, 0, m.lines*m.hosts*3+m.hosts)
	for l := 0; l < m.lines; l++ {
		for h := 0; h < m.hosts; h++ {
			evs = append(evs, Event{EvRead, h, l}, Event{EvWrite, h, l})
			if s.Lines[l].Cache[h] != I {
				evs = append(evs, Event{EvEvict, h, l})
			}
		}
	}
	if m.pipm {
		if s.PageOwn == none {
			for h := 0; h < m.hosts; h++ {
				evs = append(evs, Event{EvPromote, h, 0})
			}
		} else {
			evs = append(evs, Event{EvRevoke, int(s.PageOwn), 0})
		}
	}
	return evs
}

// apply executes one event atomically, returning the successor and whether
// a read observed a stale value.
func (m *model) apply(s State, ev Event) (State, bool) {
	h := ev.Host
	switch ev.Kind {
	case EvRead:
		stale := m.read(&s.Lines[ev.Line], h)
		return s, stale
	case EvWrite:
		stale := m.write(&s.Lines[ev.Line], h)
		return s, stale
	case EvEvict:
		m.evict(&s, &s.Lines[ev.Line], h)
		return s, false
	case EvPromote:
		s.PageOwn = int8(h)
		return s, false
	case EvRevoke:
		m.revoke(&s, h)
		return s, false
	}
	panic("check: unknown event")
}

func (m *model) read(ln *Line, h int) bool {
	switch ln.Cache[h] {
	case S, M, ME:
		return !ln.CacheUTD[h] // cache hit
	}
	switch {
	case int(ln.BitOwner) == h:
		// Case ③: I' → ME, served from local memory.
		stale := !ln.LocalUTD
		ln.Cache[h] = ME
		ln.CacheUTD[h] = ln.LocalUTD
		return stale
	case ln.BitOwner != none:
		// Inter-host read of a migrated line.
		g := int(ln.BitOwner)
		if ln.Cache[g] == ME {
			// Case ⑥: owner downgrades ME→S, line migrates back, both
			// hosts share; CXL updated by the writeback.
			stale := !ln.CacheUTD[g]
			ln.Cache[g] = S
			ln.Cache[h] = S
			ln.CacheUTD[h] = ln.CacheUTD[g]
			ln.CXLUTD = ln.CacheUTD[g]
			ln.BitOwner = none
			return stale
		}
		// Case ②: pure I' — fetch from owner's local memory, write back to
		// CXL, requester caches in M (exclusive fill per the paper).
		stale := !ln.LocalUTD
		ln.CXLUTD = ln.LocalUTD
		ln.Cache[h] = M
		ln.CacheUTD[h] = ln.LocalUTD
		ln.BitOwner = none
		return stale
	}
	// Plain CXL-DSM MSI read.
	for g := 0; g < m.hosts; g++ {
		if g != h && ln.Cache[g] == M {
			// Owner forwards and downgrades; CXL updated.
			stale := !ln.CacheUTD[g]
			ln.Cache[g] = S
			ln.CXLUTD = ln.CacheUTD[g]
			ln.Cache[h] = S
			ln.CacheUTD[h] = ln.CacheUTD[g]
			return stale
		}
	}
	stale := !ln.CXLUTD
	ln.Cache[h] = S
	ln.CacheUTD[h] = ln.CXLUTD
	return stale
}

func (m *model) write(ln *Line, h int) bool {
	stale := false
	switch ln.Cache[h] {
	case M, ME:
		// Write hit with ownership.
	case S:
		// Upgrade: invalidate all other sharers.
		for g := 0; g < m.hosts; g++ {
			if g != h && ln.Cache[g] == S {
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			}
		}
		ln.Cache[h] = M
	case I:
		switch {
		case int(ln.BitOwner) == h:
			// Case ③ then write: fill from local memory into ME.
			stale = !ln.LocalUTD
			ln.Cache[h] = ME
		case ln.BitOwner != none:
			// Cases ②/⑤: pull the migrated line back, invalidating the
			// owner's copy; requester takes M.
			g := int(ln.BitOwner)
			if ln.Cache[g] == ME {
				stale = !ln.CacheUTD[g]
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			} else {
				stale = !ln.LocalUTD
			}
			ln.CXLUTD = true // migrate-back writeback (pre-write value)
			ln.BitOwner = none
			ln.Cache[h] = M
		default:
			// MSI write miss: invalidate every copy, take M.
			for g := 0; g < m.hosts; g++ {
				if g == h {
					continue
				}
				if ln.Cache[g] == M {
					stale = stale || !ln.CacheUTD[g]
				}
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			}
			ln.Cache[h] = M
		}
	}
	// The write makes h's copy the unique latest version.
	for g := range ln.CacheUTD {
		ln.CacheUTD[g] = false
	}
	ln.CacheUTD[h] = true
	ln.CXLUTD = false
	ln.LocalUTD = false
	return stale
}

func (m *model) evict(s *State, ln *Line, h int) {
	switch ln.Cache[h] {
	case S:
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	case M:
		if m.pipm && int(s.PageOwn) == h {
			// Case ①: incremental migration — the writeback lands in local
			// memory and the in-memory bits flip (M → I').
			ln.LocalUTD = ln.CacheUTD[h]
			ln.BitOwner = int8(h)
		} else {
			ln.CXLUTD = ln.CacheUTD[h]
		}
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	case ME:
		// Case ④: ME → I', dirty data back to local memory only.
		ln.LocalUTD = ln.CacheUTD[h]
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	}
}

// revoke returns every migrated block of the page to CXL memory (§4.2 ⑥):
// page-granularity, so it acts on all lines at once, the local entry is
// dropped and the page is unowned again.
func (m *model) revoke(s *State, h int) {
	for l := 0; l < m.lines; l++ {
		ln := &s.Lines[l]
		if int(ln.BitOwner) == h {
			ln.CXLUTD = ln.LocalUTD
			ln.LocalUTD = false
			ln.BitOwner = none
		}
		if ln.Cache[h] == ME {
			// A cached migrated block becomes an ordinary dirty CXL block.
			ln.Cache[h] = M
		}
	}
	s.PageOwn = none
}

// checkInvariants returns the violated rule's name, or "".
func (m *model) checkInvariants(s *State) string {
	for l := 0; l < m.lines; l++ {
		ln := &s.Lines[l]
		writers, sharers := 0, 0
		for h := 0; h < m.hosts; h++ {
			switch ln.Cache[h] {
			case M, ME:
				writers++
				if !ln.CacheUTD[h] {
					return "owner-holds-latest: M/ME copy is stale"
				}
			case S:
				sharers++
				if !ln.CacheUTD[h] {
					return "sharers-clean: S copy is stale"
				}
			}
			if ln.Cache[h] == ME && (int(ln.BitOwner) != h || int(s.PageOwn) != h) {
				return "ME-implies-migrated-here"
			}
		}
		if writers > 1 {
			return "SWMR: two writers"
		}
		if writers == 1 && sharers > 0 {
			return "SWMR: writer coexists with readers"
		}
		if ln.BitOwner != none && ln.BitOwner != s.PageOwn {
			return "bit-consistency: in-memory bit outside the owning page"
		}
		// Liveness of the value: someone must hold the latest version.
		anyUTD := ln.CXLUTD || (ln.BitOwner != none && ln.LocalUTD)
		for h := 0; h < m.hosts; h++ {
			if ln.Cache[h] != I && ln.CacheUTD[h] {
				anyUTD = true
			}
		}
		if !anyUTD {
			return "value-lost: no location holds the latest version"
		}
	}
	return ""
}

// ----------------------------------------------------------- exploration --

// pedge records how a state was first reached, for witness reconstruction.
type pedge struct {
	parent pkey
	via    Event
}

// routed is one successor en route to its owning shard.
type routed struct {
	key    pkey
	parent pkey
	via    Event
}

// foundViolation is a violation candidate located during one BFS level;
// ties are broken by (shard, order) so reporting is deterministic.
type foundViolation struct {
	shard int
	order int
	rule  string
	state pkey
	// extraEv extends the witness path beyond the path to `state` (used
	// for stale reads, where the violating event is the last step).
	extraEv  Event
	hasExtra bool
}

// Run exhaustively explores the protocol instance and returns the first
// invariant violation found, if any. It panics on an instance outside
// the packed bounds.
func Run(opt Options) (Result, *Violation) {
	if opt.Hosts < 2 || opt.Hosts > MaxHosts {
		panic(fmt.Sprintf("check: Hosts must be 2..%d", MaxHosts))
	}
	if opt.Lines < 1 || opt.Lines > MaxLines {
		panic(fmt.Sprintf("check: Lines must be 1..%d", MaxLines))
	}
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 64 {
		workers = 64
	}
	return explore(&model{hosts: opt.Hosts, lines: opt.Lines, pipm: opt.PIPM}, workers)
}

// explore is the sharded level-synchronous BFS behind Run.
func explore(m *model, workers int) (Result, *Violation) {
	res := Result{Workers: workers}

	start := initialState()
	startKey := encode(&start)
	startShard := int(startKey.hash() % uint64(workers))

	seen := make([]map[pkey]pedge, workers)
	frontier := make([][]pkey, workers)
	for i := range seen {
		seen[i] = make(map[pkey]pedge)
	}
	seen[startShard][startKey] = pedge{parent: startKey}
	frontier[startShard] = []pkey{startKey}

	// outbox[src][dst] holds successors worker src discovered for shard dst.
	outbox := make([][][]routed, workers)
	for i := range outbox {
		outbox[i] = make([][]routed, workers)
	}
	transitions := make([]int, workers)
	violations := make([]*foundViolation, workers)

	tally := func(depth int) {
		for w := 0; w < workers; w++ {
			res.Transitions += transitions[w]
			res.States += len(seen[w])
		}
		res.Depth = depth
	}

	depth := 0
	for {
		// Expansion phase: each worker expands its own shard's frontier,
		// routing successors by hash. No shared writes.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				found := func(v foundViolation) {
					v.shard = w
					violations[w] = &v
				}
				for order, key := range frontier[w] {
					st := decode(key)
					if rule := m.checkInvariants(&st); rule != "" {
						found(foundViolation{order: order, rule: rule, state: key})
						return
					}
					events := m.enabled(&st)
					if len(events) == 0 {
						found(foundViolation{order: order, rule: "deadlock: no enabled event", state: key})
						return
					}
					for _, ev := range events {
						next, stale := m.apply(st, ev)
						transitions[w]++
						if stale {
							found(foundViolation{
								order:   order,
								rule:    "SC-per-location: read returned a stale value",
								state:   key,
								extraEv: ev, hasExtra: true,
							})
							return
						}
						nk := encode(&next)
						dst := int(nk.hash() % uint64(workers))
						outbox[w][dst] = append(outbox[w][dst], routed{key: nk, parent: key, via: ev})
					}
				}
			}(w)
		}
		wg.Wait()

		// Deterministic violation selection across the level.
		var best *foundViolation
		for _, v := range violations {
			if v == nil {
				continue
			}
			if best == nil || v.shard < best.shard || (v.shard == best.shard && v.order < best.order) {
				best = v
			}
		}
		if best != nil {
			tally(depth)
			return res, reconstruct(m, best, seen, workers)
		}

		// Merge phase: each worker folds incoming successors into its own
		// shard and builds the next frontier. Again no shared writes.
		grew := false
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				frontier[w] = frontier[w][:0]
				for src := 0; src < workers; src++ {
					for _, r := range outbox[src][w] {
						if _, ok := seen[w][r.key]; ok {
							continue
						}
						seen[w][r.key] = pedge{parent: r.parent, via: r.via}
						frontier[w] = append(frontier[w], r.key)
					}
					outbox[src][w] = outbox[src][w][:0]
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if len(frontier[w]) > 0 {
				grew = true
			}
		}
		if !grew {
			break
		}
		depth++
	}

	tally(depth)
	res.DeadlockFree = true
	return res, nil
}

// reconstruct rebuilds the witness path by chasing parent edges across the
// sharded visited sets.
func reconstruct(m *model, v *foundViolation, seen []map[pkey]pedge, workers int) *Violation {
	var path []Event
	key := v.state
	for {
		shard := int(key.hash() % uint64(workers))
		e, ok := seen[shard][key]
		if !ok || e.parent == key {
			break
		}
		path = append([]Event{e.via}, path...)
		key = e.parent
	}
	st := decode(v.state)
	if v.hasExtra {
		// The violating step itself (a stale read) ends the witness path.
		st, _ = m.apply(st, v.extraEv)
		path = append(path, v.extraEv)
	}
	return &Violation{Rule: v.rule, State: st, Path: path}
}
