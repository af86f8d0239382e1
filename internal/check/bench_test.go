package check

import "testing"

func BenchmarkModelCheckPIPM3Hosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, v := Run(Options{Hosts: 3, Lines: 1, PIPM: true, Workers: 1}); v != nil {
			b.Fatal(v)
		}
	}
}
