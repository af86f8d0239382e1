package mem

import (
	"testing"

	"pipm/internal/config"
)

func BenchmarkAccessSequential(b *testing.B) {
	d := New(config.Default().CXLDRAM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(0, config.Addr(i*config.LineBytes), false)
	}
}

func BenchmarkAccessRandomish(b *testing.B) {
	d := New(config.Default().CXLDRAM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(0, config.Addr(i*7919*config.LineBytes), i&3 == 0)
	}
}

func BenchmarkAccessBulkPage(b *testing.B) {
	d := New(config.Default().CXLDRAM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AccessBulk(0, config.Addr(i)*config.PageBytes, config.PageBytes, true)
	}
}
