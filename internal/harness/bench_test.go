package harness

import (
	"testing"

	"pipm/internal/migration"
)

// BenchmarkKeyOf measures one run-key computation (the reflective canonical
// encoding plus sha256) for a statistical and a mechanistic workload.
func BenchmarkKeyOf(b *testing.B) {
	o := QuickOptions()
	for _, name := range []string{"pr", "llmserve"} {
		wl := mustWorkload(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = KeyOf(o.Cfg, wl, migration.PIPM, o.RecordsPerCore, int64(i))
			}
		})
	}
}

// BenchmarkDecodeStoredEntry measures decoding and digest-verifying one
// result-store body written for a short pr/PIPM quick run.
func BenchmarkDecodeStoredEntry(b *testing.B) {
	o := QuickOptions()
	res, _, _, err := Run(RunRequest{Cfg: o.Cfg, WL: mustWorkload("pr"), Scheme: migration.PIPM, Records: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	body, err := encodeStoreEntry(res, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkResult, _, err = DecodeStoredEntry(body); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sinkKey    RunKey
	sinkResult Result
)
