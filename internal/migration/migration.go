// Package migration implements the page-placement schemes the paper
// compares (§5.1.3): the four kernel-based, page-granularity policies
// (Nomad, Memtis, HeMem, OS-skew), the shared page-table state they act on,
// and the harmful-migration ledger behind Fig. 5. The hardware schemes
// (PIPM, HW-static) live in internal/core; Native and Local-only need no
// policy at all.
package migration

import "fmt"

// Kind names a scheme under evaluation.
type Kind uint8

const (
	// Native is baseline multi-host CXL-DSM: no migration to local memory.
	Native Kind = iota
	// Nomad is the recency-based kernel policy with asynchronous
	// (transactional) page migration.
	Nomad
	// Memtis is the frequency-based kernel policy with a dynamic hot
	// threshold from an access histogram.
	Memtis
	// HeMem is a frequency-threshold kernel policy with periodic cooling.
	HeMem
	// OSSkew is the ablation: PIPM's majority-vote policy driving the
	// conventional kernel migration mechanism.
	OSSkew
	// HWStatic is the ablation: PIPM's incremental hardware mechanism with
	// a fixed 1:1 CXL→local mapping (Intel Flat Mode-like).
	HWStatic
	// PIPM is the full design.
	PIPM
	// LocalOnly is the upper bound: all data local to the accessing host.
	LocalOnly
)

// String returns the scheme's registered name (see registry.go).
func (k Kind) String() string {
	if s, ok := Lookup(k); ok {
		return s.Name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a scheme name (as printed by String) against the
// registry.
func ParseKind(s string) (Kind, error) {
	sc, err := ByName(s)
	if err != nil {
		return 0, err
	}
	return sc.Kind, nil
}

// FamilyOf returns the scheme family k is registered under; unregistered
// kinds report FamilyNative (they build no migration machinery).
func (k Kind) FamilyOf() Family {
	if s, ok := Lookup(k); ok {
		return s.Family
	}
	return FamilyNative
}

// Kernel reports whether the scheme migrates whole pages via the kernel.
func (k Kind) Kernel() bool { return k.FamilyOf() == FamilyKernel }

// ToCXL is the Op destination meaning "demote back to CXL memory".
const ToCXL = -1

// Op is one page movement a policy requests at an epoch boundary.
type Op struct {
	Page int64
	To   int // destination host, or ToCXL
}

// Policy is a kernel-based page-placement policy. RecordAccess feeds it the
// memory-visible access stream (LLC misses and non-cacheable accesses — the
// granularity NUMA-hinting faults or PEBS sampling would see); Tick closes
// an epoch and emits the migrations to perform.
type Policy interface {
	Name() string
	RecordAccess(host int, page int64, write bool)
	// Tick returns the ops for this epoch. pt is current placement;
	// budgetPerHost caps how many shared pages one host may hold locally.
	Tick(pt *PageTable, budgetPerHost int) []Op
}

// PageTable is the whole-page placement state kernel schemes mutate: for
// each shared page, the host whose local DRAM holds it (or ToCXL).
type PageTable struct {
	owner    []int16
	resident []int // pages per host
}

// NewPageTable starts with every page in CXL memory.
func NewPageTable(pages int64, hosts int) *PageTable {
	pt := &PageTable{owner: make([]int16, pages), resident: make([]int, hosts)}
	for i := range pt.owner {
		pt.owner[i] = ToCXL
	}
	return pt
}

// Pages returns the number of pages tracked.
func (pt *PageTable) Pages() int64 { return int64(len(pt.owner)) }

// Owner returns the host holding page, or ToCXL.
func (pt *PageTable) Owner(page int64) int { return int(pt.owner[page]) }

// Set moves page to host (or ToCXL), maintaining residency counts.
func (pt *PageTable) Set(page int64, host int) {
	old := pt.owner[page]
	if int(old) == host {
		return
	}
	if old != ToCXL {
		pt.resident[old]--
	}
	if host != ToCXL {
		pt.resident[host]++
	}
	pt.owner[page] = int16(host)
}

// Resident returns the number of shared pages host h currently holds.
func (pt *PageTable) Resident(h int) int { return pt.resident[h] }
