package sim

import "testing"

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Nanosecond, func() {})
		e.Step()
	}
}

func BenchmarkResourceAcquire(b *testing.B) {
	r := NewResource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i)*Nanosecond, Nanosecond)
	}
}

func BenchmarkPipeSend(b *testing.B) {
	p := NewPipe(5e9, 50*Nanosecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(Time(i)*100*Nanosecond, 64)
	}
}
