// Package mem implements a bank-aware DDR timing model used for both the
// hosts' local DRAM and the CXL node's pooled DRAM. It is deliberately
// simpler than a full command-level DDR scheduler: each access resolves to a
// row hit / closed-row / row-conflict latency against per-bank state, plus
// serialization on the channel data bus, plus FCFS queueing on both. That is
// the level of fidelity the migration study needs — what matters is the
// local-vs-remote latency gap and bandwidth pressure from page transfers.
package mem

import (
	"pipm/internal/config"
	"pipm/internal/sim"
)

// rowBytes is the DRAM row (page) size assumed for row-buffer locality.
const rowBytes = 8192

// AccessKind classifies how an access resolved in the row buffer.
type AccessKind uint8

const (
	RowHit AccessKind = iota
	RowClosed
	RowConflict
)

func (k AccessKind) String() string {
	switch k {
	case RowHit:
		return "row-hit"
	case RowClosed:
		return "row-closed"
	default:
		return "row-conflict"
	}
}

type bank struct {
	openRow    int64
	hasOpenRow bool
	// nextActivate enforces tRC between successive activates to one bank.
	nextActivate sim.Time
}

type channel struct {
	bus   *sim.Resource
	banks []bank
}

// Stats aggregates DRAM event counts.
type Stats struct {
	Reads     uint64
	Writes    uint64
	Hits      uint64
	Closed    uint64
	Conflicts uint64
}

// DRAM models one memory pool: a set of channels, each with banks and a
// bandwidth-limited data bus.
type DRAM struct {
	cfg      config.DRAMConfig
	channels []channel
	burst    sim.Time // 64B serialization on one channel's bus
	stats    Stats
}

// New builds a DRAM pool from its configuration.
func New(cfg config.DRAMConfig) *DRAM {
	d := &DRAM{
		cfg:   cfg,
		burst: sim.Time(float64(config.LineBytes) / cfg.ChannelBW * float64(sim.Second)),
	}
	d.channels = make([]channel, cfg.Channels)
	for i := range d.channels {
		d.channels[i] = channel{
			bus:   sim.NewResource(),
			banks: make([]bank, cfg.BanksPerChan),
		}
	}
	return d
}

// route maps a line address to (channel, bank, row). Channels interleave at
// line granularity so streams spread across channels; banks interleave at
// row granularity so a scan walks one row per bank before wrapping.
func (d *DRAM) route(line config.Addr) (ch, bk int, row int64) {
	ch = int(line) % d.cfg.Channels
	rowIdx := int64(line) * config.LineBytes / rowBytes
	bk = int(rowIdx) % d.cfg.BanksPerChan
	row = rowIdx / int64(d.cfg.BanksPerChan)
	return ch, bk, row
}

// Access performs one 64-byte access to the line containing addr, starting
// no earlier than now, and returns the completion time. Writes use the same
// timing as reads at this fidelity (write latency is buffered in real parts,
// but bandwidth and bank occupancy still apply, which is what we model).
func (d *DRAM) Access(now sim.Time, addr config.Addr, write bool) sim.Time {
	t, _ := d.access(now, addr, write)
	return t
}

// AccessKind is like Access but also reports the row-buffer outcome,
// which the tests use to pin timing behaviour.
func (d *DRAM) AccessKind(now sim.Time, addr config.Addr, write bool) (sim.Time, AccessKind) {
	return d.access(now, addr, write)
}

func (d *DRAM) access(now sim.Time, addr config.Addr, write bool) (sim.Time, AccessKind) {
	chIdx, bkIdx, row := d.route(addr.Line())
	ch := &d.channels[chIdx]
	b := &ch.banks[bkIdx]

	var kind AccessKind
	var core sim.Time // command latency before data transfer
	switch {
	case b.hasOpenRow && b.openRow == row:
		kind = RowHit
		core = d.cfg.TCL
	case !b.hasOpenRow:
		kind = RowClosed
		core = d.cfg.TRCD + d.cfg.TCL
	default:
		kind = RowConflict
		core = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL
	}

	start := now
	if kind != RowHit {
		// An activate is needed; respect tRC since this bank's last activate.
		start = sim.Max(start, b.nextActivate)
		b.nextActivate = start + d.cfg.TRC
		b.openRow, b.hasOpenRow = row, true
	}

	// Data burst serializes on the channel bus after the command latency.
	done := ch.bus.Acquire(start+core, d.burst)

	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	switch kind {
	case RowHit:
		d.stats.Hits++
	case RowClosed:
		d.stats.Closed++
	default:
		d.stats.Conflicts++
	}
	return done, kind
}

// AccessBulk models an n-byte streaming transfer (page migration): the first
// line pays full access latency; subsequent lines pipeline, paying only data
// bus serialization (activates and CAS latency hide under the stream, as a
// real controller's command pipelining achieves for sequential bursts). It
// returns the completion time of the last byte.
func (d *DRAM) AccessBulk(now sim.Time, addr config.Addr, n int, write bool) sim.Time {
	if n <= 0 {
		return now
	}
	done := d.Access(now, addr, write)
	last := done
	lines := (n + config.LineBytes - 1) / config.LineBytes
	for i := 1; i < lines; i++ {
		line := (addr + config.Addr(i*config.LineBytes)).Line()
		chIdx, bkIdx, row := d.route(line)
		ch := &d.channels[chIdx]
		b := &ch.banks[bkIdx]
		if !(b.hasOpenRow && b.openRow == row) {
			b.openRow, b.hasOpenRow = row, true
		}
		t := ch.bus.Acquire(done, d.burst)
		last = sim.Max(last, t)
		if write {
			d.stats.Writes++
		} else {
			d.stats.Reads++
		}
		d.stats.Hits++
	}
	return last
}

// Stats returns accumulated counters.
func (d *DRAM) Stats() Stats { return d.stats }

// BusyTime sums data-bus busy time across channels.
func (d *DRAM) BusyTime() sim.Time {
	var t sim.Time
	for i := range d.channels {
		t += d.channels[i].bus.BusyTime()
	}
	return t
}

// Reset clears bank state, bus queues and statistics.
func (d *DRAM) Reset() {
	for i := range d.channels {
		d.channels[i].bus.Reset()
		for j := range d.channels[i].banks {
			d.channels[i].banks[j] = bank{}
		}
	}
	d.stats = Stats{}
}
