package main

import "time"

// The reference kernel measures how fast the host runs this process right
// now. On a shared VM the same code runs up to 20% faster or slower from
// one sweep to the next as neighbours come and go. The simulator's speed
// tracks this short integer kernel with unpredictable branches more closely
// than pointer chases through 512 KB, 8 MB or 16 MB, alone or summed with
// it: over five 20-second runs each, scaling by it cut the spread of
// quick-4h and serve-4h throughput from 17–20% of the median to 5–6%,
// against 9–11% for the chases. Its code lives here, not in the program, so
// no change to the simulator can change the yardstick it is measured with.
const refSteps = 1 << 20 // about 8 ms per call on a 2.1 GHz Xeon

// refNominal is the reference kernel's wall time on the nominal host. A
// time measured while the kernel took k × refNominal is divided by k, so
// reported times read as if the host ran at nominal speed throughout.
const refNominal = 8 * time.Millisecond

// refSink keeps the kernel's result live.
var refSink uint64

// reference runs the kernel once and returns its wall time. Every call does
// identical work.
func reference() time.Duration {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x
		} else if x&3 == 1 {
			acc ^= x >> 5
		} else {
			acc = acc*31 + 7
		}
	}
	d := time.Since(t0)
	refSink += acc
	return d
}
