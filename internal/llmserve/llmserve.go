// Package llmserve is a mechanistic multi-host LLM inference workload in the
// spirit of XL-Share's AI serving systems (SNIPPETS.md Snippet 3): a large
// read-mostly weight region shared by every host, a pool of per-session
// KV-cache slots that are write-heavy and migrate with session placement,
// and bursty open-loop session arrivals. Like internal/gapbs and
// internal/silo, the generator *executes* the serving loop — admissions,
// prefill, decode steps — and emits every memory access it makes, driven
// entirely by the deterministic per-core RNG seam.
//
// Shared-heap layout (carved with config.AddressMap.SplitSharedPages):
//
//	weights [W pages]   host h's tensor-parallel shard is the h-th slice;
//	                    a ShardFrac share of weight reads stay on it, the
//	                    rest hit globally hot pages (embeddings, top layers)
//	kv      [K pages]   SlotPages-page session slots; slot s is home to
//	                    host s mod hosts, and a MigrateFrac share of
//	                    admissions resume a session on a *foreign* slot —
//	                    the KV cache written by another host's earlier
//	                    session moves with the placement
//
// With ArrivalMean = 0 no session ever arrives and the trace degenerates to
// the idle weight scan: a pure-read sequential sweep of the host's own
// shard, the read-only limit the validation harness compares local-only
// against PIPM on.
package llmserve

import (
	"fmt"
	"math"

	"pipm/internal/config"
	"pipm/internal/trace"
)

// Params are the serving-model knobs. The zero value means "disabled" to
// the workload registry (workload.Params.Serve); every preset sets at least
// one field. All fields are plain numbers so the harness's canonical run-key
// encoder can walk them reflectively.
type Params struct {
	// WeightFrac is the fraction of the shared heap holding model weights;
	// the rest is the KV-cache slot pool.
	WeightFrac float64
	// ShardFrac is the fraction of weight-token reads that stay on the
	// host's own tensor-parallel shard; the rest hit globally popular
	// weight pages (embeddings, first/last layers) shared by every host.
	ShardFrac float64
	// WeightZipfS is the popularity skew of global weight-page picks
	// (0 = uniform).
	WeightZipfS float64
	// SlotPages is the KV-cache slot size in pages.
	SlotPages int
	// ArrivalMean is the mean number of decode steps between session
	// arrival bursts (open-loop Poisson process, geometric inter-arrival
	// in scheduler steps). Zero disables arrivals entirely: the reader
	// emits the idle weight scan only.
	ArrivalMean float64
	// BurstMean is the mean number of sessions admitted per arrival burst
	// (geometric, ≥ 1).
	BurstMean float64
	// PrefillTokens is the number of tokens processed at admission.
	PrefillTokens int
	// DecodeTokens is the mean decode length of a session (geometric, ≥ 1).
	DecodeTokens int
	// SessionZipfS skews which active session the next decode step serves
	// toward recently admitted ones (0 = uniform).
	SessionZipfS float64
	// WeightReads is the number of weight lines read per token.
	WeightReads int
	// KVReadWindow is the number of recent KV lines re-read per decode
	// token (attention over the cached prefix).
	KVReadWindow int
	// MigrateFrac is the fraction of admissions that resume a session last
	// served by another host: the slot comes from a foreign home class and
	// its prefill KV is already written, so the first accesses are reads of
	// another host's lines.
	MigrateFrac float64
	// MaxActive caps concurrently active sessions per core.
	MaxActive int
	// GapMean is the mean number of non-memory instructions between
	// memory references.
	GapMean int
}

// Default returns the calibrated serving mix behind the "llmserve" catalog
// preset: decode-dominated traffic with a hot own-shard working set, small
// write-heavy KV slots, and a quarter of sessions migrating between hosts.
func Default() Params {
	return Params{
		WeightFrac:    0.75,
		ShardFrac:     0.90,
		WeightZipfS:   1.2,
		SlotPages:     2,
		ArrivalMean:   40,
		BurstMean:     3,
		PrefillTokens: 12,
		DecodeTokens:  48,
		SessionZipfS:  1.1,
		WeightReads:   6,
		KVReadWindow:  4,
		MigrateFrac:   0.25,
		MaxActive:     8,
		GapMean:       16,
	}
}

// Enabled reports whether the params select the mechanistic generator: any
// nonzero field. The workload registry dispatches on this, so the zero value
// keeps statistical presets byte-identical to their pre-serve encoding.
func (p Params) Enabled() bool { return p != Params{} }

// Validate rejects parameter sets the generator cannot execute. Fractions
// must be probabilities, counts non-negative, and the per-token work must be
// nonzero so the reader always makes progress.
func (p Params) Validate() error {
	switch {
	case p.WeightFrac <= 0 || p.WeightFrac > 1:
		return fmt.Errorf("llmserve: WeightFrac = %g, want (0, 1]", p.WeightFrac)
	case p.ShardFrac < 0 || p.ShardFrac > 1:
		return fmt.Errorf("llmserve: ShardFrac = %g, want [0, 1]", p.ShardFrac)
	case !(p.WeightZipfS >= 0) || math.IsInf(p.WeightZipfS, 1):
		// NaN fails the comparison. An infinite skew makes the Zipf draw
		// reject forever, and NaN would silently degrade to uniform.
		return fmt.Errorf("llmserve: WeightZipfS = %g, want finite and ≥ 0", p.WeightZipfS)
	case p.SlotPages < 1:
		return fmt.Errorf("llmserve: SlotPages = %d, want ≥ 1", p.SlotPages)
	case p.ArrivalMean < 0:
		return fmt.Errorf("llmserve: ArrivalMean = %g, want ≥ 0", p.ArrivalMean)
	case p.ArrivalMean > 0 && p.BurstMean < 1:
		return fmt.Errorf("llmserve: BurstMean = %g, want ≥ 1 when arrivals are on", p.BurstMean)
	case p.PrefillTokens < 0:
		return fmt.Errorf("llmserve: PrefillTokens = %d, want ≥ 0", p.PrefillTokens)
	case p.ArrivalMean > 0 && p.DecodeTokens < 1:
		return fmt.Errorf("llmserve: DecodeTokens = %d, want ≥ 1 when arrivals are on", p.DecodeTokens)
	case !(p.SessionZipfS >= 0) || math.IsInf(p.SessionZipfS, 1):
		return fmt.Errorf("llmserve: SessionZipfS = %g, want finite and ≥ 0", p.SessionZipfS)
	case p.WeightReads < 1:
		return fmt.Errorf("llmserve: WeightReads = %d, want ≥ 1", p.WeightReads)
	case p.KVReadWindow < 0:
		return fmt.Errorf("llmserve: KVReadWindow = %d, want ≥ 0", p.KVReadWindow)
	case p.MigrateFrac < 0 || p.MigrateFrac > 1:
		return fmt.Errorf("llmserve: MigrateFrac = %g, want [0, 1]", p.MigrateFrac)
	case p.ArrivalMean > 0 && p.MaxActive < 1:
		return fmt.Errorf("llmserve: MaxActive = %d, want ≥ 1 when arrivals are on", p.MaxActive)
	case p.GapMean < 0:
		return fmt.Errorf("llmserve: GapMean = %d, want ≥ 0", p.GapMean)
	}
	return nil
}

// layout is the shared-heap carve for one (params, address map, hosts)
// tuple: identical on every host and core.
type layout struct {
	am          config.AddressMap
	hosts       int
	weightPages int64
	kvPages     int64
	slots       int64 // kvPages / SlotPages; 0 on a heap too small for slots
	shardPages  int64 // weightPages / hosts, ≥ 1
}

func newLayout(p Params, am config.AddressMap, hosts int) layout {
	parts := am.SplitSharedPages(p.WeightFrac, 1-p.WeightFrac)
	l := layout{am: am, hosts: hosts, weightPages: parts[0], kvPages: parts[1]}
	if l.weightPages < 1 {
		// A weight region always exists: the idle scan and every token read
		// it. Steal the first page back from the KV pool.
		l.weightPages, l.kvPages = 1, l.kvPages-1
	}
	l.slots = l.kvPages / int64(p.SlotPages)
	l.shardPages = l.weightPages / int64(hosts)
	if l.shardPages < 1 {
		l.shardPages = 1
	}
	return l
}

// weightAddr returns the address of line within weight page.
func (l layout) weightAddr(page int64, line int) config.Addr {
	return l.am.SharedAddr(config.Addr(page)*config.PageBytes +
		config.Addr(line)*config.LineBytes)
}

// shardStart returns the first weight page of host h's shard. Shards tile
// the region; the tail past hosts×shardPages is global-only territory.
func (l layout) shardStart(h int) int64 {
	return (int64(h) * l.shardPages) % l.weightPages
}

// kvAddr returns the address of KV line idx within slot s; lines wrap within
// the slot, modelling the sliding attention window of a full cache.
func (l layout) kvAddr(p Params, slot, idx int64) config.Addr {
	linesPerSlot := int64(p.SlotPages) * config.LinesPerPage
	line := idx % linesPerSlot
	base := (l.weightPages + slot*int64(p.SlotPages)) * config.PageBytes
	return l.am.SharedAddr(config.Addr(base) + config.Addr(line)*config.LineBytes)
}

// WeightBoundary returns the first address past the weight region — the
// classifier the validation harness uses to split weight from KV traffic.
func WeightBoundary(p Params, am config.AddressMap, hosts int) config.Addr {
	l := newLayout(p, am, hosts)
	return am.SharedAddr(0) + config.Addr(l.weightPages)*config.PageBytes
}

// session is one in-flight inference request pinned to a KV slot.
type session struct {
	slot  int64
	kvLen int64 // KV lines written so far (pre-seeded on migrate-in)
	left  int   // decode tokens remaining
}

// New returns the deterministic record stream of host h / core c. The RNG is
// derived from (seed, host, core) exactly as the statistical generators
// derive theirs, so a validation pass can reconstruct the identical stream
// with trace.Profile.
func New(p Params, am config.AddressMap, hosts, host, core int, records, seed int64) trace.Reader {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if host < 0 || host >= hosts {
		panic(fmt.Sprintf("llmserve: host %d out of range", host))
	}
	r := &reader{
		p:       p,
		l:       newLayout(p, am, hosts),
		host:    host,
		rng:     trace.NewSource(trace.CoreSeed(seed, 0, host, core)),
		burst:   trace.NewGeometric(p.BurstMean - 1),
		arrival: trace.NewGeometric(p.ArrivalMean - 1),
		tokens:  trace.NewGeometric(float64(p.DecodeTokens - 1)),
		migrate: trace.NewBernoulli(p.MigrateFrac),
		shard:   trace.NewBernoulli(p.ShardFrac),
	}
	r.Batch = trace.NewBatch(records, r.step)
	if s := p.WeightZipfS; s > 0 && r.l.weightPages > 1 {
		r.zipfGlobal = trace.NewZipf(r.rng, s, r.l.weightPages)
		if r.l.shardPages > 1 {
			r.zipfShard = trace.NewZipf(r.rng, s, r.l.shardPages)
		}
	}
	return r
}

type reader struct {
	trace.Batch

	p    Params
	l    layout
	host int

	rng        *trace.Source
	zipfGlobal *trace.Zipf
	zipfShard  *trace.Zipf

	// Precomputed samplers over rng.
	burst, arrival, tokens trace.Geometric
	migrate, shard         trace.Bernoulli

	active    []*session
	zipfRank  []*trace.Zipf // by active-session count; built on first use
	countdown int           // scheduler steps until the next arrival burst
	nextHome  int64         // round-robin cursor over the home slot class
	scanPage  int64         // idle-scan position within the own shard
	scanLine  int
}

// step executes one scheduler step: possibly an arrival burst, then one
// decode step of a zipf-picked active session — or the idle weight scan when
// no session is in flight.
func (r *reader) step() {
	if r.p.ArrivalMean > 0 && r.l.slots > 0 {
		if r.countdown <= 0 {
			n := 1 + r.burst.Draw(r.rng)
			for i := 0; i < n && len(r.active) < r.p.MaxActive; i++ {
				r.admit()
			}
			r.countdown = 1 + r.arrival.Draw(r.rng)
		}
		r.countdown--
	}
	if len(r.active) == 0 {
		r.idleScan()
		return
	}
	s := r.pickSession()
	r.decode(s)
}

// admit places a new session on a KV slot and runs its prefill. A MigrateFrac
// share of admissions resume a session from a foreign host: the slot comes
// from another host's home class with the prefill KV already in place, so the
// catch-up reads touch lines this host never wrote.
func (r *reader) admit() {
	migrated := r.l.hosts > 1 && r.l.slots > int64(r.l.hosts) &&
		r.migrate.Draw(r.rng)
	var slot int64
	if migrated {
		// Any slot whose home class is not ours.
		slot = r.rng.Int63n(r.l.slots)
		if slot%int64(r.l.hosts) == int64(r.host) {
			slot = (slot + 1) % r.l.slots
		}
	} else {
		// Round-robin over the home class; hosts with no home slot (more
		// hosts than slots) share the whole pool.
		if r.l.slots >= int64(r.l.hosts) {
			class := (r.l.slots - int64(r.host) + int64(r.l.hosts) - 1) / int64(r.l.hosts)
			slot = int64(r.host) + (r.nextHome%class)*int64(r.l.hosts)
		} else {
			slot = r.nextHome % r.l.slots
		}
		r.nextHome++
	}
	s := &session{slot: slot, left: 1 + r.tokens.Draw(r.rng)}
	if migrated {
		s.kvLen = int64(r.p.PrefillTokens)
		// Catch-up: re-read the migrated prefix before the first decode.
		for i := int64(0); i < s.kvLen && i < int64(r.p.KVReadWindow); i++ {
			r.emit(r.l.kvAddr(r.p, s.slot, s.kvLen-1-i), false, i == 0)
		}
	} else {
		for t := 0; t < r.p.PrefillTokens; t++ {
			r.weightToken()
			r.emit(r.l.kvAddr(r.p, s.slot, s.kvLen), true, false)
			s.kvLen++
		}
	}
	r.active = append(r.active, s)
}

// pickSession chooses the session the next decode step serves: zipf-skewed
// toward recent admissions (rank 0 = newest).
func (r *reader) pickSession() *session {
	n := len(r.active)
	if n == 1 {
		return r.active[0]
	}
	var z *trace.Zipf
	if s := r.p.SessionZipfS; s > 0 {
		// NewZipf only derives constants from (s, n) and draws nothing, so
		// one sampler per session count yields the same stream as building
		// a fresh one every step.
		for len(r.zipfRank) <= n {
			r.zipfRank = append(r.zipfRank, nil)
		}
		if r.zipfRank[n] == nil {
			r.zipfRank[n] = trace.NewZipf(r.rng, s, int64(n))
		}
		z = r.zipfRank[n]
	}
	rank := r.rng.Pick(z, int64(n))
	return r.active[n-1-int(rank)]
}

// decode serves one token: weight reads, attention reads over the recent KV
// prefix, one KV append. Finished sessions retire and free their slot for
// the round-robin cursor to reuse.
func (r *reader) decode(s *session) {
	r.weightToken()
	for i := int64(0); i < s.kvLen && i < int64(r.p.KVReadWindow); i++ {
		r.emit(r.l.kvAddr(r.p, s.slot, s.kvLen-1-i), false, i == 0)
	}
	r.emit(r.l.kvAddr(r.p, s.slot, s.kvLen), true, false)
	s.kvLen++
	s.left--
	if s.left <= 0 {
		for i, a := range r.active {
			if a == s {
				r.active = append(r.active[:i], r.active[i+1:]...)
				break
			}
		}
	}
}

// weightToken reads WeightReads sequential weight lines for one token:
// ShardFrac of tokens stream the host's own tensor-parallel shard, the rest
// hit globally popular pages.
func (r *reader) weightToken() {
	var page int64
	if r.shard.Draw(r.rng) {
		page = r.l.shardStart(r.host) + r.rng.Pick(r.zipfShard, r.l.shardPages)
		page %= r.l.weightPages
	} else {
		page = trace.Scramble(r.rng.Pick(r.zipfGlobal, r.l.weightPages), r.l.weightPages)
	}
	line := r.rng.Intn(config.LinesPerPage)
	for i := 0; i < r.p.WeightReads; i++ {
		r.emit(r.l.weightAddr(page, line), false, false)
		if line++; line >= config.LinesPerPage {
			line = 0
			page = (page + 1) % r.l.weightPages
		}
	}
}

// idleScan is the zero-session trace: a sequential read sweep of the host's
// own weight shard, one token's worth of lines per step. No writes, ever.
func (r *reader) idleScan() {
	start := r.l.shardStart(r.host)
	for i := 0; i < r.p.WeightReads; i++ {
		page := (start + r.scanPage) % r.l.weightPages
		r.emit(r.l.weightAddr(page, r.scanLine), false, false)
		if r.scanLine++; r.scanLine >= config.LinesPerPage {
			r.scanLine = 0
			r.scanPage = (r.scanPage + 1) % r.l.shardPages
		}
	}
}

func (r *reader) emit(addr config.Addr, write, dep bool) {
	gap := uint32(0)
	if r.p.GapMean > 0 {
		gap = uint32(r.rng.Intn(r.p.GapMean*2 + 1))
	}
	r.Emit(trace.Record{Gap: gap, Addr: addr, Write: write, Dep: dep})
}
