package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2500 * Picosecond).Nanoseconds(); got != 2.5 {
		t.Fatalf("Nanoseconds() = %v, want 2.5", got)
	}
	if got := (3 * Second).Seconds(); got != 3 {
		t.Fatalf("Seconds() = %v, want 3", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{250 * Nanosecond, "250.00ns"},
		{3 * Microsecond, "3.00us"},
		{12 * Millisecond, "12.00ms"},
		{2 * Second, "2.00s"},
		{15 * Second, "15.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockDomains(t *testing.T) {
	core := NewClock(4_000_000_000) // 4 GHz
	if core.Period() != 250*Picosecond {
		t.Fatalf("4GHz period = %v", core.Period())
	}
	dir := NewClock(2_000_000_000) // 2 GHz
	if dir.Period() != 500*Picosecond {
		t.Fatalf("2GHz period = %v", dir.Period())
	}
	if core.Cycles(24) != 6*Nanosecond {
		t.Fatalf("24 core cycles = %v, want 6ns", core.Cycles(24))
	}
	if dir.ToCycles(16*Nanosecond) != 32 {
		t.Fatalf("16ns at 2GHz = %d cycles, want 32", dir.ToCycles(16*Nanosecond))
	}
}

func TestClockRejectsBadFrequency(t *testing.T) {
	for _, hz := range []int64{0, -5, 3} { // 3 Hz doesn't divide 1e12 ps
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%d) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	// Same-time events run in scheduling order.
	e.At(20, func() { order = append(order, 20) })
	e.Run()
	want := []int{1, 2, 20, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v after run, want 30", e.Now())
	}
	if e.EventsRun() != 4 {
		t.Fatalf("EventsRun() = %d, want 4", e.EventsRun())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	var recur func()
	recur = func() {
		hits = append(hits, e.Now())
		if e.Now() < 5*Nanosecond {
			e.After(Nanosecond, recur)
		}
	}
	e.At(0, recur)
	e.Run()
	if len(hits) != 6 {
		t.Fatalf("got %d hits, want 6: %v", len(hits), hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{1, 5, 9, 15} {
		at := at * Nanosecond
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(10 * Nanosecond)
	if len(ran) != 3 {
		t.Fatalf("ran %d events before deadline, want 3", len(ran))
	}
	if e.Now() != 10*Nanosecond {
		t.Fatalf("Now() = %v, want 10ns", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("ran %d events total, want 4", len(ran))
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var fired []Time
		for i := 0; i < 1000; i++ {
			at := Time(rng.Int63n(int64(Microsecond)))
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return fired
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] <= a[j] }) {
		t.Fatal("events did not fire in time order")
	}
}

func TestResourceFCFS(t *testing.T) {
	r := NewResource()
	// Back-to-back requests queue behind each other.
	if done := r.Acquire(0, 10*Nanosecond); done != 10*Nanosecond {
		t.Fatalf("first done = %v", done)
	}
	if done := r.Acquire(0, 10*Nanosecond); done != 20*Nanosecond {
		t.Fatalf("second done = %v, want 20ns", done)
	}
	// A late arrival after the queue drains starts immediately.
	if done := r.Acquire(100*Nanosecond, 5*Nanosecond); done != 105*Nanosecond {
		t.Fatalf("late done = %v, want 105ns", done)
	}
	if r.BusyTime() != 25*Nanosecond {
		t.Fatalf("BusyTime = %v, want 25ns", r.BusyTime())
	}
	if r.QueueDelay() != 10*Nanosecond {
		t.Fatalf("QueueDelay = %v, want 10ns", r.QueueDelay())
	}
	if r.Requests() != 3 {
		t.Fatalf("Requests = %d, want 3", r.Requests())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource()
	r.Acquire(0, 30*Nanosecond)
	if u := r.Utilization(60 * Nanosecond); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
	r.Reset()
	if r.BusyTime() != 0 || r.NextFree() != 0 || r.Requests() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: completion times from a single resource never overlap and never
// run backwards, regardless of arrival pattern.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		r := NewResource()
		now := Time(0)
		prevDone := Time(0)
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivals[i]) * Picosecond // monotone arrivals
			d := Time(services[i])*Picosecond + Picosecond
			done := r.Acquire(now, d)
			if done < now+d {
				return false // finished before it could have started
			}
			if done < prevDone+d {
				return false // overlapped the previous request
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeSerialization(t *testing.T) {
	// 5 GB/s, 50ns propagation: one 64B flit serializes in 12.8ns.
	p := NewPipe(5e9, 50*Nanosecond)
	done := p.Send(0, 64)
	want := Time(12.8*float64(Nanosecond)) + 50*Nanosecond
	if done != want {
		t.Fatalf("Send(64B) done = %v, want %v", done, want)
	}
	// A second flit queues behind the first's serialization but pays its own
	// propagation concurrently.
	done2 := p.Send(0, 64)
	want2 := Time(2*12.8*float64(Nanosecond)) + 50*Nanosecond
	if done2 != want2 {
		t.Fatalf("second Send done = %v, want %v", done2, want2)
	}
	if p.BytesMoved() != 128 {
		t.Fatalf("BytesMoved = %d, want 128", p.BytesMoved())
	}
}

func TestPipePageTransferOccupancy(t *testing.T) {
	// Moving a 4KB page over a 5 GB/s link should occupy it ~819.2ns,
	// delaying a demand flit that arrives mid-transfer.
	p := NewPipe(5e9, 50*Nanosecond)
	p.Send(0, 4096)
	demandDone := p.Send(100*Nanosecond, 64)
	if demandDone <= Time(819.2*float64(Nanosecond)) {
		t.Fatalf("demand flit finished at %v, should queue behind page transfer", demandDone)
	}
}

func TestPipeRejectsZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPipe(0 B/s) did not panic")
		}
	}()
	NewPipe(0, 0)
}
