package migration

import (
	"fmt"
	"sort"
)

// Family classifies how a scheme plugs into the layered memory path
// (DESIGN.md §11). The invariant hierarchy walk in internal/machine is
// family-agnostic; each family contributes one route module there, which
// acts on the family's state directly, and every scheme in a family differs
// only by the descriptor fields below (policy constructor, static mapping,
// ...).
type Family uint8

const (
	// FamilyNative has no migration machinery: every shared access walks
	// the invariant cacheable path to the device directory and CXL memory.
	FamilyNative Family = iota
	// FamilyKernel migrates whole pages at epoch boundaries via the kernel
	// (Nomad, Memtis, HeMem, OS-skew); remote pages are reached through the
	// non-cacheable 4-hop GIM path.
	FamilyKernel
	// FamilyHardware is PIPM's partial/incremental line-granularity
	// mechanism (PIPM, HW-static), driven by the remapping tables and the
	// device-side majority vote in internal/core.
	FamilyHardware
	// FamilyLocalOnly is the upper bound: shared data behaves as local DRAM
	// on every host, with no cross-host sharing semantics.
	FamilyLocalOnly
)

func (f Family) String() string {
	switch f {
	case FamilyNative:
		return "native"
	case FamilyKernel:
		return "kernel"
	case FamilyHardware:
		return "hardware"
	case FamilyLocalOnly:
		return "local-only"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// PolicyParams is what a kernel-family policy constructor receives.
type PolicyParams struct {
	Pages     int64 // shared pages under management
	Hosts     int
	Threshold int // the configured migration threshold (vote margin)
}

// Scheme is one registered placement scheme: the single source of truth the
// harness and both CLIs enumerate (no duplicated Kind/name lists). Adding a
// ninth scheme means appending a descriptor here — see DESIGN.md §11.
type Scheme struct {
	Kind   Kind
	Name   string // as parsed/printed by ParseKind / Kind.String
	Desc   string // one-line summary for -list-schemes
	Family Family

	// NewPolicy builds the epoch policy (FamilyKernel only, nil otherwise).
	NewPolicy func(PolicyParams) Policy

	// StaticMap marks the hardware ablation with a fixed 1:1 CXL→local
	// mapping instead of the majority vote (HW-static).
	StaticMap bool
	// AsyncTransfer marks a kernel scheme whose per-page migration work runs
	// asynchronously (Nomad's transactional migration) instead of stalling
	// the initiating host.
	AsyncTransfer bool
	// Hints marks schemes that accept the §6 software page hints (PIPM).
	Hints bool
}

// registry lists every scheme in presentation order (the order of Fig. 10).
var registry = []Scheme{
	{
		Kind: Native, Name: "native", Family: FamilyNative,
		Desc: "baseline multi-host CXL-DSM: no migration to local memory",
	},
	{
		Kind: Nomad, Name: "nomad", Family: FamilyKernel,
		Desc:          "recency-based kernel policy with asynchronous (transactional) page migration",
		NewPolicy:     func(p PolicyParams) Policy { return NewNomad(p.Pages, p.Hosts) },
		AsyncTransfer: true,
	},
	{
		Kind: Memtis, Name: "memtis", Family: FamilyKernel,
		Desc:      "frequency-based kernel policy with a dynamic hot threshold",
		NewPolicy: func(p PolicyParams) Policy { return NewMemtis(p.Pages, p.Hosts) },
	},
	{
		Kind: HeMem, Name: "hemem", Family: FamilyKernel,
		Desc:      "frequency-threshold kernel policy with periodic cooling",
		NewPolicy: func(p PolicyParams) Policy { return NewHeMem(p.Pages, p.Hosts) },
	},
	{
		Kind: OSSkew, Name: "os-skew", Family: FamilyKernel,
		Desc:      "ablation: PIPM's majority-vote policy driving kernel page migration",
		NewPolicy: func(p PolicyParams) Policy { return NewOSSkew(p.Pages, p.Hosts, p.Threshold) },
	},
	{
		Kind: HWStatic, Name: "hw-static", Family: FamilyHardware,
		Desc:      "ablation: incremental hardware mechanism with a fixed 1:1 CXL-to-local mapping",
		StaticMap: true,
	},
	{
		Kind: PIPM, Name: "pipm", Family: FamilyHardware,
		Desc:  "full design: partial and incremental page migration with majority-vote promotion",
		Hints: true,
	},
	{
		Kind: LocalOnly, Name: "local-only", Family: FamilyLocalOnly,
		Desc: "upper bound: all shared data local to the accessing host",
	},
}

// byKind indexes the registry by Kind for O(1) Lookup on the hot build path.
var byKind = func() map[Kind]int {
	idx := make(map[Kind]int, len(registry))
	for i, s := range registry {
		if _, dup := idx[s.Kind]; dup {
			panic(fmt.Sprintf("migration: duplicate scheme kind %d", s.Kind))
		}
		idx[s.Kind] = i
	}
	return idx
}()

// Kinds lists every registered scheme in presentation order (Fig. 10).
var Kinds = func() []Kind {
	ks := make([]Kind, len(registry))
	for i, s := range registry {
		ks[i] = s.Kind
	}
	return ks
}()

// Registered returns every scheme descriptor in presentation order. The
// returned slice is a copy; callers may reorder or filter it freely.
func Registered() []Scheme {
	out := make([]Scheme, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the descriptor for k.
func Lookup(k Kind) (Scheme, bool) {
	i, ok := byKind[k]
	if !ok {
		return Scheme{}, false
	}
	return registry[i], true
}

// ByName resolves a scheme name (as printed by Kind.String).
func ByName(name string) (Scheme, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Scheme{}, fmt.Errorf("migration: unknown scheme %q (known: %v)", name, known)
}

// Names returns every registered scheme name in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}
