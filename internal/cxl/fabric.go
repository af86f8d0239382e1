// Package cxl models the CXL fabric of the multi-host system: one
// full-duplex link per host to the memory node (each direction an
// independently queued, bandwidth-limited pipe), optional switch hops, and
// the device coherence directory's sliced lookup ports. Message routing
// policy lives in the coherence layer; this package only prices transfers.
package cxl

import (
	"pipm/internal/config"
	"pipm/internal/sim"
)

// Message and flit sizes. CXL.mem carries 64-byte data slots; requests and
// responses without data occupy a header-sized slot.
const (
	HeaderBytes = 16
	DataBytes   = config.LineBytes
)

// Fabric is the set of links between hosts and the CXL memory node plus the
// device directory's lookup ports.
type Fabric struct {
	cfg config.CXLConfig

	up   []*sim.Pipe // host → device, indexed by host
	down []*sim.Pipe // device → host

	// Background virtual channels: writebacks, in-memory-bit updates and
	// migration bulk transfers ride a low-priority channel that scavenges
	// idle link cycles instead of head-of-line-blocking demand reads (CXL
	// QoS). Modelled as a parallel pipe at the same bandwidth — demand
	// traffic sees no queueing from background traffic, background traffic
	// still serializes against itself.
	upBG   []*sim.Pipe
	downBG []*sim.Pipe

	dirPorts []*sim.Resource // device directory slice lookup ports
}

// New builds the fabric for hosts hosts with the given CXL configuration.
func New(hosts int, cfg config.CXLConfig) *Fabric {
	if hosts < 1 {
		panic("cxl: need at least one host")
	}
	f := &Fabric{cfg: cfg}
	// Each switch hop adds one extra store-and-forward traversal, modelled
	// as additional propagation on every transfer.
	prop := cfg.LinkLatency * sim.Time(1+cfg.SwitchHops)
	for h := 0; h < hosts; h++ {
		f.up = append(f.up, sim.NewPipe(cfg.LinkBW, prop))
		f.down = append(f.down, sim.NewPipe(cfg.LinkBW, prop))
		f.upBG = append(f.upBG, sim.NewPipe(cfg.LinkBW, prop))
		f.downBG = append(f.downBG, sim.NewPipe(cfg.LinkBW, prop))
	}
	for s := 0; s < cfg.DirSlices; s++ {
		f.dirPorts = append(f.dirPorts, sim.NewResource())
	}
	return f
}

// Hosts returns the number of attached hosts.
func (f *Fabric) Hosts() int { return len(f.up) }

// HostToDevice sends n payload bytes (plus a header) from host h toward the
// memory node, returning arrival time.
func (f *Fabric) HostToDevice(now sim.Time, h, n int) sim.Time {
	return f.up[h].Send(now, n+HeaderBytes)
}

// DeviceToHost sends n payload bytes (plus a header) from the memory node to
// host h, returning arrival time.
func (f *Fabric) DeviceToHost(now sim.Time, h, n int) sim.Time {
	return f.down[h].Send(now, n+HeaderBytes)
}

// HostToDeviceBG sends n payload bytes on host h's background up-channel.
func (f *Fabric) HostToDeviceBG(now sim.Time, h, n int) sim.Time {
	return f.upBG[h].Send(now, n+HeaderBytes)
}

// DeviceToHostBG sends n payload bytes on host h's background down-channel.
func (f *Fabric) DeviceToHostBG(now sim.Time, h, n int) sim.Time {
	return f.downBG[h].Send(now, n+HeaderBytes)
}

// HostToHost routes n payload bytes from host a to host b through the memory
// node's root complex (the inter-host GIM path of Fig. 3: there is no direct
// host-to-host link). It returns arrival time at b.
func (f *Fabric) HostToHost(now sim.Time, a, b, n int) sim.Time {
	atDevice := f.HostToDevice(now, a, n)
	return f.DeviceToHost(atDevice, b, n)
}

// DirLookup performs one device-directory lookup for the given line. The
// directory is pipelined: the slice port is occupied for one directory
// cycle (2 GHz) while the full round-trip latency is paid once per lookup.
func (f *Fabric) DirLookup(now sim.Time, line config.Addr) sim.Time {
	port := f.dirPorts[int(line)%len(f.dirPorts)]
	const slot = 500 * sim.Picosecond // one 2 GHz directory cycle
	issued := port.Acquire(now, slot)
	return issued + f.cfg.DirLatency - slot
}

// UpBytes and DownBytes report total payload+header bytes moved per
// direction for host h.
func (f *Fabric) UpBytes(h int) uint64   { return f.up[h].BytesMoved() }
func (f *Fabric) DownBytes(h int) uint64 { return f.down[h].BytesMoved() }

// TotalBytes reports bytes moved across all links in both directions,
// including background channels.
func (f *Fabric) TotalBytes() uint64 {
	var t uint64
	for h := range f.up {
		t += f.up[h].BytesMoved() + f.down[h].BytesMoved()
		t += f.upBG[h].BytesMoved() + f.downBG[h].BytesMoved()
	}
	return t
}

// BackgroundBytes reports bytes moved on the background channels only.
func (f *Fabric) BackgroundBytes() uint64 {
	var t uint64
	for h := range f.upBG {
		t += f.upBG[h].BytesMoved() + f.downBG[h].BytesMoved()
	}
	return t
}

// LinkUtilization reports the mean serialization utilization across all link
// directions over the elapsed window.
func (f *Fabric) LinkUtilization(elapsed sim.Time) float64 {
	if len(f.up) == 0 {
		return 0
	}
	var u float64
	for h := range f.up {
		u += f.up[h].Utilization(elapsed) + f.down[h].Utilization(elapsed)
	}
	return u / float64(2*len(f.up))
}

// QueueDelay reports accumulated queueing across all links (a congestion
// indicator the bandwidth-sensitivity experiment reads).
func (f *Fabric) QueueDelay() sim.Time {
	var t sim.Time
	for h := range f.up {
		t += f.up[h].QueueDelay() + f.down[h].QueueDelay()
	}
	return t
}

// DebugLink reports host h's demand up/down pipe statistics:
// (requests, busy, queue) per direction.
func (f *Fabric) DebugLink(h int) (upReq uint64, upBusy, upQueue sim.Time, downReq uint64, downBusy, downQueue sim.Time) {
	return f.up[h].Requests(), f.up[h].BusyTime(), f.up[h].QueueDelay(),
		f.down[h].Requests(), f.down[h].BusyTime(), f.down[h].QueueDelay()
}

// Reset returns all links and directory ports to idle.
func (f *Fabric) Reset() {
	for h := range f.up {
		f.up[h].Reset()
		f.down[h].Reset()
		f.upBG[h].Reset()
		f.downBG[h].Reset()
	}
	for _, p := range f.dirPorts {
		p.Reset()
	}
}
