package check

import (
	"strings"
	"testing"
)

// TestStateSpaceSizes pins the exact reachable-state, transition and depth
// counts of every instance the front ends print, at several worker counts:
// the sharded BFS must explore the same space however it is partitioned.
// The one-line rows are the paper's Murφ instance.
func TestStateSpaceSizes(t *testing.T) {
	cases := []struct {
		name                       string
		hosts, lines               int
		pipm                       bool
		states, transitions, depth int
	}{
		{"MSI-2h-1l", 2, 1, false, 6, 30, 2},
		{"PIPM-2h-1l", 2, 1, true, 52, 322, 8},
		{"MSI-3h-1l", 3, 1, false, 11, 81, 3},
		{"PIPM-3h-1l", 3, 1, true, 115, 996, 8},
		{"MSI-4h-1l", 4, 1, false, 20, 196, 4},
		{"PIPM-4h-1l", 4, 1, true, 240, 2684, 8},
		{"MSI-4h-2l", 4, 2, false, 400, 7840, 8},
		{"PIPM-4h-2l", 4, 2, true, 11540, 239644, 14},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 7} {
				res, v := Run(Options{Hosts: c.hosts, Lines: c.lines, PIPM: c.pipm, Workers: workers})
				if v != nil {
					t.Fatalf("workers=%d: %v", workers, v)
				}
				if res.States != c.states || res.Transitions != c.transitions || res.Depth != c.depth {
					t.Errorf("workers=%d: %d states, %d transitions, depth %d; want %d/%d/%d",
						workers, res.States, res.Transitions, res.Depth, c.states, c.transitions, c.depth)
				}
				if !res.DeadlockFree || res.Workers != workers {
					t.Errorf("workers=%d: result %+v", workers, res)
				}
			}
		})
	}
}

func TestBaseMSIProtocolIsCorrect(t *testing.T) {
	for hosts := 2; hosts <= MaxHosts; hosts++ {
		res, v := Run(Options{Hosts: hosts, Lines: 1, PIPM: false, Workers: 1})
		if v != nil {
			t.Fatalf("MSI/%d hosts: %v", hosts, v)
		}
		if res.States < 5 {
			t.Fatalf("MSI/%d hosts: only %d states explored", hosts, res.States)
		}
		if !res.DeadlockFree {
			t.Fatalf("MSI/%d hosts: deadlock reported", hosts)
		}
	}
}

func TestPIPMProtocolIsCorrect(t *testing.T) {
	for hosts := 2; hosts <= MaxHosts; hosts++ {
		res, v := Run(Options{Hosts: hosts, Lines: 1, PIPM: true, Workers: 1})
		if v != nil {
			t.Fatalf("PIPM/%d hosts: %v", hosts, v)
		}
		if !res.DeadlockFree {
			t.Fatalf("PIPM/%d hosts: deadlock reported", hosts)
		}
		// The PIPM space must strictly contain the MSI space (new states
		// from ME/I'/ownership).
		msi, _ := Run(Options{Hosts: hosts, Lines: 1, PIPM: false, Workers: 1})
		if res.States <= msi.States {
			t.Fatalf("PIPM explored %d states, MSI %d — extension added nothing",
				res.States, msi.States)
		}
	}
}

// Workers: 1 is the sequential checker. On the one-line instances every
// sharded run must explore exactly the space the sequential run does,
// independently of the pinned counts above.
func TestParallelMatchesSequentialOnSmallInstances(t *testing.T) {
	for _, hosts := range []int{2, 3} {
		for _, pipm := range []bool{false, true} {
			seq, v := Run(Options{Hosts: hosts, Lines: 1, PIPM: pipm, Workers: 1})
			if v != nil {
				t.Fatalf("sequential hosts=%d pipm=%v: %v", hosts, pipm, v)
			}
			for _, workers := range []int{4, 7} {
				par, pv := Run(Options{Hosts: hosts, Lines: 1, PIPM: pipm, Workers: workers})
				if pv != nil {
					t.Fatalf("parallel hosts=%d pipm=%v workers=%d: %v", hosts, pipm, workers, pv)
				}
				par.Workers = seq.Workers
				if par != seq {
					t.Errorf("hosts=%d pipm=%v workers=%d: parallel %+v, sequential %+v",
						hosts, pipm, workers, par, seq)
				}
			}
		}
	}
}

func TestParallelResultsIndependentOfWorkerCount(t *testing.T) {
	var base Result
	for i, workers := range []int{1, 2, 7} {
		res, v := Run(Options{Hosts: 3, Lines: 2, PIPM: true, Workers: workers})
		if v != nil {
			t.Fatalf("workers=%d: %v", workers, v)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.States != base.States || res.Transitions != base.Transitions || res.Depth != base.Depth {
			t.Errorf("workers=%d: (%d states, %d transitions, depth %d) != workers=1 (%d, %d, %d)",
				workers, res.States, res.Transitions, res.Depth,
				base.States, base.Transitions, base.Depth)
		}
	}
}

// A state with no enabled event must be reported as a deadlock with the
// path that reached it. A correct instance always enables reads, so the
// rule is driven through a host-less model whose initial state is stuck.
func TestDeadlockDetected(t *testing.T) {
	for _, workers := range []int{1, 3} {
		res, v := explore(&model{hosts: 0, lines: 1}, workers)
		if v == nil || !strings.HasPrefix(v.Rule, "deadlock") {
			t.Fatalf("workers=%d: violation %v, want deadlock", workers, v)
		}
		if res.DeadlockFree || res.States != 1 || len(v.Path) != 0 {
			t.Fatalf("workers=%d: result %+v, path %v", workers, res, v.Path)
		}
	}
}

// stepper drives a model through a scenario, checking after every
// event that no read was stale and every invariant holds.
type stepper struct {
	t *testing.T
	m *model
	s State
}

func newStepper(t *testing.T, hosts, lines int, pipm bool) *stepper {
	return &stepper{t: t, m: &model{hosts: hosts, lines: lines, pipm: pipm}, s: initialState()}
}

func (p *stepper) step(evs ...Event) {
	p.t.Helper()
	for _, ev := range evs {
		var stale bool
		p.s, stale = p.m.apply(p.s, ev)
		if stale {
			p.t.Fatalf("stale read at %v", ev)
		}
		if rule := p.m.checkInvariants(&p.s); rule != "" {
			p.t.Fatalf("invariant %q broken at %v: %+v", rule, ev, p.s)
		}
	}
}

func TestPIPMReachesMigratedStates(t *testing.T) {
	// Drive a concrete scenario through the transition function and check
	// the interesting states are actually exercised: promote → write →
	// evict (incremental migration, I') → re-read (ME) → inter-host read
	// (migrate back).
	p := newStepper(t, 2, 1, true)
	ln := &p.s.Lines[0]
	p.step(Event{EvPromote, 0, 0})
	if p.s.PageOwn != 0 {
		t.Fatal("promote failed")
	}
	p.step(Event{EvWrite, 0, 0})
	if ln.Cache[0] != M {
		t.Fatalf("cache[0] = %v, want M", ln.Cache[0])
	}
	p.step(Event{EvEvict, 0, 0}) // case ①
	if ln.BitOwner != 0 || ln.Cache[0] != I || !ln.LocalUTD {
		t.Fatalf("incremental migration failed: %+v", *ln)
	}
	p.step(Event{EvRead, 0, 0}) // case ③
	if ln.Cache[0] != ME {
		t.Fatalf("I' re-read gave %v, want ME", ln.Cache[0])
	}
	p.step(Event{EvRead, 1, 0}) // case ⑥
	if ln.BitOwner != none {
		t.Fatalf("inter-host read did not migrate back: %+v", *ln)
	}
	if ln.Cache[0] != S || ln.Cache[1] != S {
		t.Fatalf("case ⑥ should leave both hosts in S: %+v", *ln)
	}
	if !ln.CXLUTD {
		t.Fatal("migrate-back did not update CXL memory")
	}
}

func TestPIPMCase2PureIPrime(t *testing.T) {
	p := newStepper(t, 2, 1, true)
	p.step(Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0})
	// Line is I' at host 0 (not cached). Host 1 reads: case ② — requester
	// fills M, bit clears, CXL updated.
	s2, stale := p.m.apply(p.s, Event{EvRead, 1, 0})
	if stale {
		t.Fatal("case ② returned stale data")
	}
	if ln := s2.Lines[0]; ln.Cache[1] != M || ln.BitOwner != none || !ln.CXLUTD {
		t.Fatalf("case ② end state: %+v", ln)
	}
}

func TestPIPMCase5InterWriteInvalidatesME(t *testing.T) {
	p := newStepper(t, 2, 1, true)
	p.step(Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0}, Event{EvRead, 0, 0})
	if p.s.Lines[0].Cache[0] != ME {
		t.Fatalf("setup failed: %+v", p.s)
	}
	s2, stale := p.m.apply(p.s, Event{EvWrite, 1, 0})
	if stale {
		t.Fatal("case ⑤ read stale data")
	}
	ln := s2.Lines[0]
	if ln.Cache[0] != I || ln.Cache[1] != M || ln.BitOwner != none {
		t.Fatalf("case ⑤ end state: %+v", ln)
	}
	if !ln.CacheUTD[1] || ln.CXLUTD || ln.LocalUTD {
		t.Fatalf("after inter-write, only the writer may be latest: %+v", ln)
	}
}

func TestRevokeRestoresCXLBacking(t *testing.T) {
	p := newStepper(t, 2, 1, true)
	p.step(Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0})
	s2, _ := p.m.apply(p.s, Event{EvRevoke, 0, 0})
	if s2.PageOwn != none || s2.Lines[0].BitOwner != none {
		t.Fatalf("revoke left ownership: %+v", s2)
	}
	if !s2.Lines[0].CXLUTD {
		t.Fatal("revoke lost the latest value")
	}
	// Reading from CXL afterwards must be fresh.
	s3, stale := p.m.apply(s2, Event{EvRead, 1, 0})
	if stale || s3.Lines[0].Cache[1] != S {
		t.Fatalf("post-revoke read: stale=%v state=%+v", stale, s3)
	}
}

// Drive the 2-line model through a promote → write/evict on both lines →
// revoke scenario and check the page coupling (revocation returns BOTH
// lines' bits).
func TestTwoLineRevokeReturnsAllBits(t *testing.T) {
	p := newStepper(t, 4, 2, true)
	p.step(Event{EvPromote, 1, 0})
	p.step(Event{EvWrite, 1, 0}, Event{EvEvict, 1, 0}) // line 0 → I' at host 1
	p.step(Event{EvWrite, 1, 1}, Event{EvEvict, 1, 1}) // line 1 → I' at host 1
	if p.s.Lines[0].BitOwner != 1 || p.s.Lines[1].BitOwner != 1 {
		t.Fatalf("incremental migration missed a line: %+v", p.s)
	}
	p.step(Event{EvRevoke, 1, 0})
	if p.s.PageOwn != none {
		t.Fatalf("revoke left page owned: %+v", p.s)
	}
	for l := 0; l < 2; l++ {
		if p.s.Lines[l].BitOwner != none || !p.s.Lines[l].CXLUTD {
			t.Fatalf("line %d not returned to CXL: %+v", l, p.s.Lines[l])
		}
	}
	// Reads from any host must now be fresh.
	for h := 0; h < 4; h++ {
		if _, stale := p.m.apply(p.s, Event{EvRead, h, 0}); stale {
			t.Fatalf("post-revoke read stale at host %d", h)
		}
	}
}

func TestCheckerDetectsInvariantViolations(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: true}
	line := func(ln Line) State {
		s := State{PageOwn: none}
		s.Lines[0] = ln
		return s
	}
	cases := []struct {
		name string
		st   State
		want string
	}{
		{"two writers", line(Line{Cache: [MaxHosts]CacheState{M, M}, CacheUTD: [MaxHosts]bool{true, true}, BitOwner: none}), "SWMR"},
		{"writer+reader", line(Line{Cache: [MaxHosts]CacheState{M, S}, CacheUTD: [MaxHosts]bool{true, true}, BitOwner: none}), "SWMR"},
		{"stale owner", line(Line{Cache: [MaxHosts]CacheState{M}, BitOwner: none, CXLUTD: true}), "owner-holds-latest"},
		{"stale sharer", line(Line{Cache: [MaxHosts]CacheState{S}, BitOwner: none, CXLUTD: true}), "sharers-clean"},
		{"orphan ME", line(Line{Cache: [MaxHosts]CacheState{ME}, CacheUTD: [MaxHosts]bool{true}, BitOwner: none}), "ME-implies-migrated-here"},
		{"bit outside page", State{Lines: [MaxLines]Line{{BitOwner: 0, CXLUTD: true}}, PageOwn: 1}, "bit-consistency"},
		{"value lost", line(Line{BitOwner: none}), "value-lost"},
	}
	for _, c := range cases {
		rule := m.checkInvariants(&c.st)
		if !strings.Contains(rule, strings.Split(c.want, ":")[0]) {
			t.Errorf("%s: got rule %q, want %q", c.name, rule, c.want)
		}
	}
}

// The invariants hold per line and across the whole host range: a second
// writer at host 2 and a lost value on line 1 are caught in the full
// 4-host, 2-line instance.
func TestParallelDetectsSeededViolations(t *testing.T) {
	m := &model{hosts: 4, lines: 2, pipm: true}
	bad := initialState()
	bad.Lines[0].Cache[0] = M
	bad.Lines[0].Cache[2] = M
	bad.Lines[0].CacheUTD[0] = true
	bad.Lines[0].CacheUTD[2] = true
	if rule := m.checkInvariants(&bad); rule == "" {
		t.Fatal("two-writer state not flagged")
	}

	lost := initialState()
	lost.Lines[1].CXLUTD = false
	if rule := m.checkInvariants(&lost); rule == "" {
		t.Fatal("value-lost state not flagged")
	}
}

// A deliberately broken protocol variant must be caught: skipping sharer
// invalidation on write upgrade leaves stale S copies that a later read
// observes. We emulate the bug by hand-driving the transition system.
func TestCheckerWouldCatchMissingInvalidation(t *testing.T) {
	p := newStepper(t, 2, 1, false)
	p.step(Event{EvRead, 0, 0}, Event{EvRead, 1, 0}) // both S
	s := p.s
	ln := &s.Lines[0]
	// Buggy upgrade: host 0 takes M without invalidating host 1.
	ln.Cache[0] = M
	for g := range ln.CacheUTD {
		ln.CacheUTD[g] = false
	}
	ln.CacheUTD[0] = true
	ln.CXLUTD = false
	// Host 1 still thinks it has a valid S copy.
	if rule := p.m.checkInvariants(&s); !strings.Contains(rule, "SWMR") && !strings.Contains(rule, "sharers-clean") {
		t.Fatalf("broken state not detected: rule=%q state=%+v", rule, s)
	}
	// And the read itself would be stale.
	if _, stale := p.m.apply(s, Event{EvRead, 1, 0}); !stale {
		t.Fatal("stale sharer read not flagged")
	}
}

func TestPackedStateRoundTrips(t *testing.T) {
	states := []State{
		initialState(),
		{PageOwn: 3, Lines: [MaxLines]Line{
			{Cache: [MaxHosts]CacheState{M, S, I, ME}, CacheUTD: [MaxHosts]bool{true, false, false, true},
				CXLUTD: true, LocalUTD: false, BitOwner: 3},
			{Cache: [MaxHosts]CacheState{I, I, S, I}, CacheUTD: [MaxHosts]bool{false, false, true, false},
				CXLUTD: false, LocalUTD: true, BitOwner: none},
		}},
		{PageOwn: none, Lines: [MaxLines]Line{
			{BitOwner: 0, LocalUTD: true},
			{BitOwner: none, CXLUTD: true},
		}},
	}
	for i, s := range states {
		k := encode(&s)
		got := decode(k)
		if got != s {
			t.Errorf("state %d: round trip mismatch:\n in  %+v\n out %+v", i, s, got)
		}
	}
}

func TestEventAndStateStrings(t *testing.T) {
	if ME.String() != "ME" || I.String() != "I" {
		t.Fatal("CacheState strings wrong")
	}
	e := Event{EvWrite, 1, 0}
	if e.String() != "Write(h1,l0)" {
		t.Fatalf("Event.String = %q", e.String())
	}
	if s := (Event{EvRevoke, 2, 0}).String(); s != "Revoke(h2)" {
		t.Fatalf("page Event.String = %q", s)
	}
	v := &Violation{Rule: "x", Path: []Event{e}}
	if !strings.Contains(v.Error(), "x") {
		t.Fatal("Violation.Error missing rule")
	}
}

func TestRunPanicsOnBadHosts(t *testing.T) {
	for _, opt := range []Options{
		{Hosts: 1, Lines: 1},
		{Hosts: 5, Lines: 1},
	} {
		expectPanic(t, opt)
	}
}

// Instances outside the packed representation's line bounds are rejected
// before exploration starts.
func TestPRunPanicsOnBadInstance(t *testing.T) {
	for _, opt := range []Options{
		{Hosts: 2, Lines: 0},
		{Hosts: 2, Lines: 3},
	} {
		expectPanic(t, opt)
	}
}

func expectPanic(t *testing.T, opt Options) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for %+v", opt)
		}
	}()
	Run(opt)
}
