// Package daxfs is a mechanistic shared-filesystem workload in the spirit of
// DAXFS (PAPERS.md): a lock-free metadata index whose hot allocator and
// journal lines every host read-modify-writes CAS-style, laid over cold data
// extents accessed in sequential scan and append phases. Like internal/silo,
// the generator *executes* filesystem operations — lookups, extent scans,
// appends — and emits every memory access they make, driven by the
// deterministic per-core RNG seam.
//
// Shared-heap layout (carved with config.AddressMap.SplitSharedPages):
//
//	metadata [M pages]  page 0 holds the HotLines allocator/journal lines
//	                    every append CASes (genuine all-host contention);
//	                    the remaining lines hold per-file inodes
//	data     [D pages]  ExtentPages-page extents, one per file; file f is
//	                    home to host f mod hosts and an OwnFrac share of
//	                    operations stay on the host's own subtree
//
// With LookupFrac+ScanFrac = 1 no append ever runs and the trace degenerates
// to pure reads — the read-only limit the validation harness compares
// local-only against PIPM on.
package daxfs

import (
	"fmt"
	"math/rand"

	"pipm/internal/config"
	"pipm/internal/trace"
)

// Params are the filesystem-model knobs. The zero value means "disabled" to
// the workload registry (workload.Params.FS). All fields are plain numbers
// so the canonical run-key encoder can walk them reflectively.
type Params struct {
	// MetaFrac is the fraction of the shared heap holding the metadata
	// index; the rest is data extents.
	MetaFrac float64
	// HotLines is the number of super-hot allocator/journal lines (all in
	// metadata page 0) that appends CAS and lookups consult.
	HotLines int
	// FileZipfS is the popularity skew of file selection (0 = uniform).
	FileZipfS float64
	// OwnFrac is the fraction of operations against files in the host's
	// own subtree (file home = file mod hosts); the rest pick globally.
	OwnFrac float64
	// ExtentPages is the data-extent size per file, in pages.
	ExtentPages int
	// LookupFrac and ScanFrac give the operation mix; the remainder
	// (1 - LookupFrac - ScanFrac) is appends.
	LookupFrac float64
	ScanFrac   float64
	// ScanLines is the mean number of sequential extent lines per scan
	// (geometric, ≥ 1).
	ScanLines int
	// AppendLines is the number of sequential extent lines each append
	// writes after winning its CASes.
	AppendLines int
	// CASFanout is the number of hot metadata lines each append
	// read-modify-writes (allocator head, journal tail, ...).
	CASFanout int
	// GapMean is the mean number of non-memory instructions between
	// memory references.
	GapMean int
}

// Default returns the calibrated mix behind the "daxfs" catalog preset:
// lookup-dominated metadata traffic with a fifth of operations appending
// through the contended allocator lines.
func Default() Params {
	return Params{
		MetaFrac:    0.125,
		HotLines:    8,
		FileZipfS:   1.15,
		OwnFrac:     0.90,
		ExtentPages: 4,
		LookupFrac:  0.55,
		ScanFrac:    0.25,
		ScanLines:   96,
		AppendLines: 8,
		CASFanout:   2,
		GapMean:     20,
	}
}

// Enabled reports whether the params select the mechanistic generator.
func (p Params) Enabled() bool { return p != Params{} }

// Validate rejects parameter sets the generator cannot execute.
func (p Params) Validate() error {
	switch {
	case p.MetaFrac <= 0 || p.MetaFrac >= 1:
		return fmt.Errorf("daxfs: MetaFrac = %g, want (0, 1)", p.MetaFrac)
	case p.HotLines < 1 || p.HotLines > config.LinesPerPage:
		return fmt.Errorf("daxfs: HotLines = %d, want 1..%d", p.HotLines, config.LinesPerPage)
	case p.FileZipfS < 0:
		return fmt.Errorf("daxfs: FileZipfS = %g, want ≥ 0", p.FileZipfS)
	case p.OwnFrac < 0 || p.OwnFrac > 1:
		return fmt.Errorf("daxfs: OwnFrac = %g, want [0, 1]", p.OwnFrac)
	case p.ExtentPages < 1:
		return fmt.Errorf("daxfs: ExtentPages = %d, want ≥ 1", p.ExtentPages)
	case p.LookupFrac < 0 || p.ScanFrac < 0 || p.LookupFrac+p.ScanFrac > 1:
		return fmt.Errorf("daxfs: op mix lookup=%g scan=%g, want non-negative with sum ≤ 1",
			p.LookupFrac, p.ScanFrac)
	case p.ScanLines < 1:
		return fmt.Errorf("daxfs: ScanLines = %d, want ≥ 1", p.ScanLines)
	case p.LookupFrac+p.ScanFrac < 1 && p.AppendLines < 1:
		return fmt.Errorf("daxfs: AppendLines = %d, want ≥ 1 when appends are in the mix", p.AppendLines)
	case p.LookupFrac+p.ScanFrac < 1 && p.CASFanout < 1:
		return fmt.Errorf("daxfs: CASFanout = %d, want ≥ 1 when appends are in the mix", p.CASFanout)
	case p.GapMean < 0:
		return fmt.Errorf("daxfs: GapMean = %d, want ≥ 0", p.GapMean)
	}
	return nil
}

// layout is the shared-heap carve: identical on every host and core.
type layout struct {
	am          config.AddressMap
	hosts       int
	metaPages   int64
	dataPages   int64
	extentPages int64 // ExtentPages clamped to the data region
	files       int64
	hotLines    int
}

func newLayout(p Params, am config.AddressMap, hosts int) layout {
	parts := am.SplitSharedPages(p.MetaFrac, 1-p.MetaFrac)
	l := layout{am: am, hosts: hosts, metaPages: parts[0], dataPages: parts[1], hotLines: p.HotLines}
	if l.metaPages < 1 {
		l.metaPages, l.dataPages = 1, l.dataPages-1
	}
	if l.dataPages < 1 {
		// A one-page heap: metadata and the single extent share the page's
		// line space; every address stays in range because extent lines wrap.
		l.metaPages, l.dataPages = am.SharedPages(), 0
	}
	l.extentPages = int64(p.ExtentPages)
	if l.dataPages > 0 && l.extentPages > l.dataPages {
		l.extentPages = l.dataPages
	}
	if l.dataPages > 0 {
		l.files = l.dataPages / l.extentPages
	}
	if l.files < 1 {
		l.files = 1
	}
	return l
}

// hotAddr returns the h-th super-hot metadata line (metadata page 0).
func (l layout) hotAddr(h int) config.Addr {
	return l.am.SharedAddr(config.Addr(h%l.hotLines) * config.LineBytes)
}

// inodeAddr returns file f's inode line, hashed across the metadata lines
// past the hot set (collisions are ordinary hash-directory collisions).
func (l layout) inodeAddr(f int64) config.Addr {
	inodeLines := l.metaPages*config.LinesPerPage - int64(l.hotLines)
	if inodeLines < 1 {
		inodeLines = 1
	}
	line := int64(l.hotLines) + (f*2654435761)%inodeLines
	return l.am.SharedAddr(config.Addr(line) * config.LineBytes)
}

// extentAddr returns the address of line within file f's extent (lines wrap
// within the extent). On a heap too small for a data region, extents alias
// the metadata pages — addresses always stay in range.
func (l layout) extentAddr(f, line int64) config.Addr {
	if l.dataPages == 0 {
		total := l.metaPages * config.LinesPerPage
		return l.am.SharedAddr(config.Addr((f+line)%total) * config.LineBytes)
	}
	extentLines := l.extentPages * config.LinesPerPage
	base := (l.metaPages + (f%l.files)*l.extentPages) * config.PageBytes
	return l.am.SharedAddr(config.Addr(base) +
		config.Addr(line%extentLines)*config.LineBytes)
}

// MetaBoundary returns the first address past the metadata region.
func MetaBoundary(p Params, am config.AddressMap, hosts int) config.Addr {
	l := newLayout(p, am, hosts)
	return am.SharedAddr(0) + config.Addr(l.metaPages)*config.PageBytes
}

// New returns the deterministic record stream of host h / core c, derived
// from (seed, host, core) exactly as trace.Profile reconstructs it.
func New(p Params, am config.AddressMap, hosts, host, core int, records, seed int64) trace.Reader {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if host < 0 || host >= hosts {
		panic(fmt.Sprintf("daxfs: host %d out of range", host))
	}
	r := &reader{
		p:        p,
		l:        newLayout(p, am, hosts),
		host:     host,
		rng:      trace.NewSource(trace.CoreSeed(seed, 0x5851F42D, host, core)),
		cursors:  map[int64]int64{},
		opLookup: trace.NewBernoulli(p.LookupFrac),
		opScan:   trace.NewBernoulli(p.LookupFrac + p.ScanFrac),
		own:      trace.NewBernoulli(p.OwnFrac),
		scanLen:  trace.NewGeometric(float64(p.ScanLines - 1)),
	}
	r.Batch = trace.NewBatch(records, r.op)
	r.ownFiles = (r.l.files - int64(host) + int64(hosts) - 1) / int64(hosts)
	if r.l.files < int64(hosts) {
		r.ownFiles = r.l.files
	}
	if s := p.FileZipfS; s > 0 {
		if r.l.files > 1 {
			r.zipfAll = trace.NewZipf(r.rng, s, r.l.files)
		}
		if r.ownFiles > 1 {
			r.zipfOwn = trace.NewZipf(r.rng, s, r.ownFiles)
		}
	}
	return r
}

type reader struct {
	trace.Batch

	p    Params
	l    layout
	host int

	rng      *trace.Source
	zipfAll  *rand.Zipf
	zipfOwn  *rand.Zipf
	ownFiles int64

	// Precomputed samplers over rng; opLookup and opScan test one draw.
	opLookup, opScan, own trace.Bernoulli
	scanLen               trace.Geometric

	cursors map[int64]int64 // per-file append cursor (extent lines)
}

// op executes one filesystem operation against a zipf-picked file.
func (r *reader) op() {
	f := r.pickFile()
	switch u := r.rng.Unit(); {
	case r.opLookup.Hit(u):
		r.lookup(f)
	case r.opScan.Hit(u):
		r.scan(f)
	default:
		r.append(f)
	}
}

// pickFile chooses the operation's file: OwnFrac of picks stay on the host's
// own subtree (file home = file mod hosts), the rest go global with the same
// hot-file-is-hot-for-everyone scramble the statistical generators use.
func (r *reader) pickFile() int64 {
	if r.l.files >= int64(r.l.hosts) && r.own.Draw(r.rng) {
		rank := r.rng.Pick(r.zipfOwn, r.ownFiles)
		return int64(r.host) + trace.Scramble(rank, r.ownFiles)*int64(r.l.hosts)
	}
	return trace.Scramble(r.rng.Pick(r.zipfAll, r.l.files), r.l.files)
}

// lookup resolves a path: a hot directory line, then the dependent inode,
// then the extent head.
func (r *reader) lookup(f int64) {
	r.emit(r.l.hotAddr(int(f)), false, false)
	r.emit(r.l.inodeAddr(f), false, true)
	r.emit(r.l.extentAddr(f, 0), false, true)
}

// scan reads the inode then streams sequential extent lines.
func (r *reader) scan(f int64) {
	r.emit(r.l.inodeAddr(f), false, false)
	n := 1 + r.scanLen.Draw(r.rng)
	start := r.rng.Int63n(r.l.extentPages * config.LinesPerPage)
	for i := int64(0); i < int64(n); i++ {
		r.emit(r.l.extentAddr(f, start+i), false, false)
	}
}

// append wins CASFanout lock-free CASes on the hot allocator/journal lines
// (read then dependent write of the same line — the contended RMW every host
// fights over), updates the inode the same way, then streams the payload
// into the extent at the file's append cursor.
func (r *reader) append(f int64) {
	for i := 0; i < r.p.CASFanout; i++ {
		h := int(f) + i
		r.emit(r.l.hotAddr(h), false, false)
		r.emit(r.l.hotAddr(h), true, true)
	}
	r.emit(r.l.inodeAddr(f), false, false)
	r.emit(r.l.inodeAddr(f), true, true)
	cur := r.cursors[f]
	for i := int64(0); i < int64(r.p.AppendLines); i++ {
		r.emit(r.l.extentAddr(f, cur+i), true, false)
	}
	r.cursors[f] = cur + int64(r.p.AppendLines)
}

func (r *reader) emit(addr config.Addr, write, dep bool) {
	gap := uint32(0)
	if r.p.GapMean > 0 {
		gap = uint32(r.rng.Intn(r.p.GapMean*2 + 1))
	}
	r.Emit(trace.Record{Gap: gap, Addr: addr, Write: write, Dep: dep})
}
