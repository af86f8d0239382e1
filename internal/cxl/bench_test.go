package cxl

import (
	"fmt"
	"testing"

	"pipm/internal/config"
	"pipm/internal/sim"
)

// BenchmarkFabric measures one call per op of each fabric path at 4 and 64
// hosts, with hosts and directory lines rotating the way a multi-host run
// spreads them. Time advances 100 ns per op so links do not saturate.
func BenchmarkFabric(b *testing.B) {
	for _, hosts := range []int{4, 64} {
		f := New(hosts, config.Default().CXL)
		paths := []struct {
			name string
			call func(now sim.Time, i int) sim.Time
		}{
			{"HostToDevice", func(now sim.Time, i int) sim.Time { return f.HostToDevice(now, i%hosts, DataBytes) }},
			{"DeviceToHost", func(now sim.Time, i int) sim.Time { return f.DeviceToHost(now, i%hosts, DataBytes) }},
			{"HostToHost", func(now sim.Time, i int) sim.Time {
				return f.HostToHost(now, i%hosts, (i+1)%hosts, DataBytes)
			}},
			{"DirLookup", func(now sim.Time, i int) sim.Time { return f.DirLookup(now, config.Addr(i*7)) }},
		}
		for _, p := range paths {
			b.Run(fmt.Sprintf("%s/%dh", p.name, hosts), func(b *testing.B) {
				f.Reset()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkTime = p.call(sim.Time(i)*100*sim.Nanosecond, i)
				}
			})
		}
	}
}

var sinkTime sim.Time
