// Package audit is the runtime invariant auditor for the multi-host CXL-DSM
// machine (DESIGN.md §12). It is always compiled and optionally enabled: the
// machine walks its own state — every host cache, the device coherence
// directory, the PIPM remapping tables, the kernel page table — at quantum
// boundaries (and after every protocol transition in paranoid mode), distils
// the walk into small fact records, and this package applies the protocol
// rules derived from the paper. Paranoid mode also distils the one line each
// shared access touched and applies the same per-line rules to it. The rules
// are:
//
//   - conservation — each shared block has exactly one exclusive owner or a
//     consistent sharer set across all host caches plus the device directory;
//   - MESI/ME/I' legality — no two M/E/ME holders, ME and I' imply a live
//     local remapping entry with the line's in-memory bit set, and the
//     per-block 1-bit in-memory state agrees with the directory (a migrated
//     block never has a directory entry, §4.3.2);
//   - remap-cache / page-table agreement — global and local remapping tables
//     mirror each other, counters stay inside their 6-/4-bit fields, remap
//     caches only hold in-range page indices;
//   - sim-heap accounting — the footprint gauges telemetry samples equal the
//     occupancy an independent walk counts.
//
// Every check is observation-only: the walk uses Peek/ForEach accessors that
// never touch LRU state or statistics, so an audited run's Result digest is
// bit-identical to an unaudited one. Violations capture a bounded trail of
// protocol events from the telemetry ring and fail the run.
package audit

import (
	"fmt"
	"strings"

	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
)

// Mode selects how often the auditor sweeps machine state.
type Mode uint8

const (
	// Off disables auditing entirely; the hot path pays one nil check.
	Off Mode = iota
	// Quantum sweeps the whole machine state after every scheduling quantum.
	Quantum
	// Paranoid additionally checks the touched line after every shared
	// access and sweeps after every protocol transition (promotion,
	// revocation, line migration/demotion, kernel epoch migration).
	Paranoid
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Quantum:
		return "quantum"
	case Paranoid:
		return "paranoid"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode name as accepted by cmd/validate -audit.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "quantum":
		return Quantum, nil
	case "paranoid":
		return Paranoid, nil
	}
	return Off, fmt.Errorf("audit: unknown mode %q (want off, quantum or paranoid)", s)
}

// Options configures an auditor.
type Options struct {
	Mode Mode
	// Interval is the number of quanta between periodic sweeps (values
	// below 1 mean every quantum).
	Interval int
}

// Enabled reports whether the options turn auditing on.
func (o Options) Enabled() bool { return o.Mode != Off }

const (
	// maxViolations bounds how many violations are collected before the
	// auditor stops recording. The run fails on the first one either way;
	// the bound keeps reports readable.
	maxViolations = 16
	// trailDepth is how many telemetry protocol events each violation
	// captures from the ring.
	trailDepth = 8
)

// Invariant identifiers, stable across releases: they name rows of the
// DESIGN.md §12 catalogue and prefix every violation message.
const (
	InvInclusion    = "inclusion"       // L1 contents ⊆ LLC contents
	InvSWMR         = "swmr"            // single writer / multiple readers
	InvConservation = "conservation"    // every cached copy is tracked somewhere
	InvDirPrecision = "dir-precision"   // directory entries match holder sets
	InvMigrated     = "migrated-state"  // ME/I' legality + in-memory bit agreement
	InvRemapAgree   = "remap-agreement" // global/local table + remap-cache agreement
	InvAccounting   = "accounting"      // footprint gauges equal walked occupancy
)

// Violation is one invariant failure, with the simulated time it was
// detected at and a bounded trail of the protocol events leading up to it.
type Violation struct {
	At        sim.Time
	Invariant string
	Detail    string
	Trail     []telemetry.Event
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v [%s] %s", v.At, v.Invariant, v.Detail)
	for _, e := range v.Trail {
		fmt.Fprintf(&b, "\n    trail t=%v %s host=%d page=%d arg=%d", e.At, e.Kind, e.Host, e.Page, e.Arg)
	}
	return b.String()
}

// Report summarises one audited run.
type Report struct {
	Mode       Mode
	Sweeps     uint64 // whole-state sweeps performed
	Checks     uint64 // individual fact checks applied
	Violations []Violation
	Truncated  bool // the violation cap was reached; later violations were dropped
}

// Err returns nil for a clean report, or an error naming the first
// violations (the run-failing signal the harness propagates).
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d invariant violation(s)", len(r.Violations))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	for i, v := range r.Violations {
		if i == 4 {
			fmt.Fprintf(&b, "\n  ... %d more", len(r.Violations)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Auditor collects violations and applies the invariant rules to the fact
// records the machine's state walk produces. It holds no machine state and
// never mutates anything it is shown.
type Auditor struct {
	opt        Options
	sweeps     uint64
	checks     uint64
	violations []Violation
	truncated  bool
}

// New builds an auditor.
func New(o Options) *Auditor {
	if o.Interval < 1 {
		o.Interval = 1
	}
	return &Auditor{opt: o}
}

// Options returns the options the auditor runs with, Interval at least 1.
func (a *Auditor) Options() Options { return a.opt }

// NoteSweep counts one whole-state sweep.
func (a *Auditor) NoteSweep() { a.sweeps++ }

// OK reports whether no violation has been recorded.
func (a *Auditor) OK() bool { return len(a.violations) == 0 }

// Report snapshots the auditor's findings.
func (a *Auditor) Report() Report {
	out := Report{Mode: a.opt.Mode, Sweeps: a.sweeps, Checks: a.checks, Truncated: a.truncated}
	out.Violations = append(out.Violations, a.violations...)
	return out
}

// failf records a violation, capturing the ring's most recent events as the
// trail. ring may be nil. Recording stops at maxViolations.
func (a *Auditor) failf(at sim.Time, ring *telemetry.Trace, invariant, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.truncated = true
		return
	}
	v := Violation{At: at, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	if ring != nil {
		evs := ring.Events()
		if len(evs) > trailDepth {
			evs = evs[len(evs)-trailDepth:]
		}
		v.Trail = evs
	}
	a.violations = append(a.violations, v)
}

// ------------------------------------------------------------------ facts --

// LineFacts aggregates every host's view of one shared cache line plus the
// matching device-directory and migration state. HolderMask/SharedMask/
// L1StrayMask are exact host sets (coherence.HostSet scales to the 256-host
// cap); Excl* describe the (unique, if legal) exclusive holder.
type LineFacts struct {
	Line config.Addr

	HolderMask  coherence.HostSet // hosts whose LLC holds a valid copy
	SharedMask  coherence.HostSet // hosts whose LLC holds the line Shared
	L1StrayMask coherence.HostSet // hosts where an L1 holds the line but the LLC does not

	ExclCount int         // hosts holding the line M/E/ME in their LLC
	ExclHost  int         // one such host (valid when ExclCount > 0)
	ExclState cache.State // its state

	HasDir bool // device directory has an entry for the line
	Dir    coherence.Entry

	// Hardware family: the line's in-memory migrated bit and the global
	// table's page owner. MigOwner is -1 when the page is unowned.
	Migrated bool
	MigOwner int

	// Kernel family: the page table's owner for the line's page, -1 for
	// CXL-resident pages.
	PageOwner int
}

// CheckLine applies the per-line conservation and legality rules.
func (a *Auditor) CheckLine(at sim.Time, ring *telemetry.Trace, fam migration.Family, f *LineFacts) {
	a.checks++

	// Inclusion: an L1 may never hold a line its host's LLC lost.
	if !f.L1StrayMask.Empty() {
		a.failf(at, ring, InvInclusion, "line %#x cached in L1(s) of hosts %v but absent from their LLC", f.Line, f.L1StrayMask)
	}

	// The local-only idealisation has no cross-host sharing semantics at
	// all: each host serves "shared" data from its own DRAM, so multiple
	// exclusive copies are legitimate and the device directory never tracks
	// anything. Only per-host inclusion (checked above) applies.
	if fam == migration.FamilyLocalOnly {
		return
	}

	// SWMR: at most one exclusive holder machine-wide, and an exclusive
	// holder excludes every other copy.
	if f.ExclCount > 1 {
		a.failf(at, ring, InvSWMR, "line %#x has %d exclusive holders (last: host %d in %v)", f.Line, f.ExclCount, f.ExclHost, f.ExclState)
	} else if f.ExclCount == 1 && !f.HolderMask.Only(f.ExclHost) {
		a.failf(at, ring, InvSWMR, "line %#x held %v by host %d while hosts %v also hold copies", f.Line, f.ExclState, f.ExclHost, f.HolderMask.Without(f.ExclHost))
	}

	// Locally-resident blocks opt out of the device directory: kernel pages
	// migrated to a host, and hardware-migrated (ME/I') lines. For them the
	// rule is confinement — only the owner may cache the block and the
	// directory must not track it.
	if fam == migration.FamilyKernel && f.PageOwner >= 0 {
		if !f.HolderMask.Without(f.PageOwner).Empty() {
			a.failf(at, ring, InvDirPrecision, "line %#x of page owned by host %d cached by hosts %v", f.Line, f.PageOwner, f.HolderMask)
		}
		if f.HasDir {
			a.failf(at, ring, InvDirPrecision, "line %#x of locally-resident page (host %d) has a device-directory entry %+v", f.Line, f.PageOwner, f.Dir)
		}
		return
	}
	if fam == migration.FamilyHardware && f.Migrated {
		// I'/ME legality (§4.3.2): the migrated bit confines the block to
		// the owning host — cached there as ME, or uncached (I') — and the
		// directory deliberately holds no entry for it.
		if f.MigOwner < 0 {
			a.failf(at, ring, InvMigrated, "line %#x has its migrated bit set but its page has no owner", f.Line)
		}
		if f.HasDir {
			a.failf(at, ring, InvMigrated, "migrated line %#x has a device-directory entry %+v (I'/ME must be directory-Invalid)", f.Line, f.Dir)
		}
		if f.MigOwner >= 0 && !f.HolderMask.Without(f.MigOwner).Empty() {
			a.failf(at, ring, InvMigrated, "migrated line %#x (owner %d) cached by hosts %v", f.Line, f.MigOwner, f.HolderMask)
		}
		if f.ExclCount == 1 && f.ExclState != cache.MigratedExclusive {
			a.failf(at, ring, InvMigrated, "migrated line %#x cached %v at host %d (want ME)", f.Line, f.ExclState, f.ExclHost)
		}
		if !f.SharedMask.Empty() {
			a.failf(at, ring, InvMigrated, "migrated line %#x held Shared by hosts %v", f.Line, f.SharedMask)
		}
		return
	}
	// A CXL-backed line must never be cached MigratedExclusive.
	if f.ExclCount == 1 && f.ExclState == cache.MigratedExclusive {
		a.failf(at, ring, InvMigrated, "line %#x cached ME at host %d without its migrated bit set", f.Line, f.ExclHost)
	}

	// Directory precision for CXL-backed lines: the entry's view must
	// describe the holders' view — exact equality for bitmask sharer sets,
	// population + region cover for summary sets (DESIGN.md §16).
	switch {
	case f.HasDir && f.Dir.State == coherence.DirShared:
		if f.ExclCount != 0 {
			a.failf(at, ring, InvDirPrecision, "line %#x directory-Shared but host %d holds it %v", f.Line, f.ExclHost, f.ExclState)
		}
		if !f.Dir.Sharers.Describes(f.SharedMask) {
			a.failf(at, ring, InvDirPrecision, "line %#x directory sharers %v do not describe cached sharers %v", f.Line, f.Dir.Sharers, f.SharedMask)
		}
	case f.HasDir && f.Dir.State == coherence.DirModified:
		own := int(f.Dir.Owner)
		if !f.HolderMask.Only(own) {
			a.failf(at, ring, InvDirPrecision, "line %#x directory-Modified at host %d but cached by hosts %v", f.Line, own, f.HolderMask)
		} else if f.ExclCount != 1 || f.ExclHost != own ||
			(f.ExclState != cache.Modified && f.ExclState != cache.Exclusive) {
			a.failf(at, ring, InvDirPrecision, "line %#x directory-Modified at host %d but held %v (excl=%d@%d)", f.Line, own, f.ExclState, f.ExclCount, f.ExclHost)
		}
	default:
		// No entry: conservation demands no host caches the line at all —
		// a cached copy the directory forgot could never be invalidated.
		if !f.HolderMask.Empty() {
			a.failf(at, ring, InvConservation, "line %#x cached by hosts %v with no directory entry", f.Line, f.HolderMask)
		}
	}
}

// PageFacts describes one page's remapping state for the hardware family.
type PageFacts struct {
	Page      int64
	GlobalCur int   // global table CurHost (-1 none)
	GlobalCnd int   // global table CandHost (-1 none)
	GlobalCnt uint8 // 6-bit vote counter
	HasLocal  bool  // CurHost's local table has an entry (meaningful when GlobalCur >= 0)
	LocalCnt  uint8 // 4-bit revocation counter of that entry
	Hosts     int
	// OtherLocalMask marks hosts other than GlobalCur that hold a local
	// entry for the page — always illegal.
	OtherLocalMask coherence.HostSet
}

// CheckPage applies the remap-table agreement rules (§4.2/§4.4): the global
// and local tables mirror each other and counters fit their hardware fields.
func (a *Auditor) CheckPage(at sim.Time, ring *telemetry.Trace, f *PageFacts) {
	a.checks++
	if f.GlobalCur >= f.Hosts || f.GlobalCnd >= f.Hosts {
		a.failf(at, ring, InvRemapAgree, "page %d global entry names out-of-range host (cur=%d cand=%d hosts=%d)", f.Page, f.GlobalCur, f.GlobalCnd, f.Hosts)
	}
	if f.GlobalCnt > 63 {
		a.failf(at, ring, InvRemapAgree, "page %d vote counter %d exceeds the 6-bit field", f.Page, f.GlobalCnt)
	}
	if f.GlobalCur >= 0 && !f.HasLocal {
		a.failf(at, ring, InvRemapAgree, "page %d globally owned by host %d with no local remapping entry", f.Page, f.GlobalCur)
	}
	if f.GlobalCur >= 0 && f.LocalCnt > 15 {
		a.failf(at, ring, InvRemapAgree, "page %d revocation counter %d exceeds the 4-bit field", f.Page, f.LocalCnt)
	}
	if !f.OtherLocalMask.Empty() {
		a.failf(at, ring, InvRemapAgree, "page %d has local remapping entries at non-owner hosts %v (owner %d)", f.Page, f.OtherLocalMask, f.GlobalCur)
	}
}

// CacheBoundFacts describes one remap cache's walked content.
type CacheBoundFacts struct {
	Name     string
	Cached   int   // walked entry count
	Capacity int   // -1 infinite, 0 disabled
	MinPage  int64 // smallest cached page index (valid when Cached > 0)
	MaxPage  int64 // largest cached page index
	Pages    int64 // shared pages in the machine
	Dups     int   // duplicate page indices found
}

// CheckRemapCache validates a remap cache's structural integrity.
func (a *Auditor) CheckRemapCache(at sim.Time, ring *telemetry.Trace, f *CacheBoundFacts) {
	a.checks++
	if f.Capacity > 0 && f.Cached > f.Capacity {
		a.failf(at, ring, InvRemapAgree, "%s holds %d entries over its %d capacity", f.Name, f.Cached, f.Capacity)
	}
	if f.Dups != 0 {
		a.failf(at, ring, InvRemapAgree, "%s holds %d duplicate page tags", f.Name, f.Dups)
	}
	if f.Cached > 0 && (f.MinPage < 0 || f.MaxPage >= f.Pages) {
		a.failf(at, ring, InvRemapAgree, "%s caches out-of-range page (min=%d max=%d pages=%d)", f.Name, f.MinPage, f.MaxPage, f.Pages)
	}
}

// AccountingFacts compares a footprint gauge against an independent recount.
type AccountingFacts struct {
	Host  int
	What  string // "pages" or "lines"
	Gauge int64  // what telemetry's footprint gauge reads
	Walk  int64  // what the audit walk counted
}

// CheckAccounting applies the sim-heap accounting rule: the gauges sampled
// into the time-series must equal walked occupancy.
func (a *Auditor) CheckAccounting(at sim.Time, ring *telemetry.Trace, f *AccountingFacts) {
	a.checks++
	if f.Gauge != f.Walk {
		a.failf(at, ring, InvAccounting, "host %d footprint gauge reads %d %s but the walk counted %d", f.Host, f.Gauge, f.What, f.Walk)
	}
}

// ConservationFacts compares lifetime migration counters against live state:
// what was migrated in minus what was migrated out must equal what is
// resident now.
type ConservationFacts struct {
	What     string // e.g. "migrated lines"
	In       uint64 // lifetime inflow counter
	Out      uint64 // lifetime outflow counter
	Initial  int64  // state present before the run (static pre-assignment)
	Resident int64  // walked live state
}

// CheckConservation applies the flow-conservation rule to a counter pair.
func (a *Auditor) CheckConservation(at sim.Time, ring *telemetry.Trace, f *ConservationFacts) {
	a.checks++
	if f.Initial+int64(f.In)-int64(f.Out) != f.Resident {
		a.failf(at, ring, InvAccounting, "%s: initial %d + in %d - out %d != resident %d", f.What, f.Initial, f.In, f.Out, f.Resident)
	}
}
