package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"sort"
	"strings"
	"testing"

	"pipm/internal/migration"
)

// TestParseArgs maps experiments argument vectors to the run set their
// resolved options name — sha256 over the sorted run keys of every
// workload × every registered scheme, the digest the experiment service uses
// for job IDs — or to their exact error. Rows cover every invocation in the
// CI workflow, the README and the package doc, plus each negative or zero
// override.
func TestParseArgs(t *testing.T) {
	// Digests computed at the commit before the front ends shared a
	// resolver. quick6000 is also the service job ID of the CI submit
	// (pipmctl submit -quick -workloads pr,canneal,ycsb -schemes all
	// -records 6000): the same run set from both front ends.
	const (
		full      = "aef60c2ea0e8bfec5f20ca0b881b01a4"
		quick     = "2311cf7e525c73993635e5dedf82f6e5"
		quick6000 = "c539cdffefe18080727f1c5309d2518a"
	)
	for _, tc := range []struct {
		args string
		want string // run-set digest, or "error: <message>"
	}{
		{"", full},
		{"-parallel 8", full},
		{"-exp fig10", full},
		{"-exp scalability,threshold,adaptivity", full},
		{"-exp clusterscale -hosts 4,16,64,256", full},
		{"-exp serve -hosts 4,16,64,256", full},
		{"-exp protocheck", full},
		{"-records 0", full},
		{"-workloads=", full},
		{"-sample-interval -1s", full}, // ignored without -timeseries
		{"-quick -json BENCH_quick.json -progress", quick},
		{"-quick -store RESULTS -json b1.json", quick},
		{"-quick -exp fig5 -timeseries ts.json -trace tr.json", "fd574edb3718b4143fc93c3bbd4b2cb1"},
		{"-quick -timeseries ts.json -sample-interval 1.5us", "39d27bf5704980c07b7a3a0571d3fa60"},
		{"-quick -records 6000 -exp fig4,fig5,fig10 -parallel 1", quick6000},
		{"-quick -records 6000 -exp fig4,fig5,fig10 -parallel 4 -json BENCH_smoke.json", quick6000},
		{"-quick -records 6000 -exp all -hosts 4,16 -parallel 1", quick6000},
		{"-quick -records 6000 -exp all -hosts 4,16 -parallel 4 -json BENCH_smoke.json", quick6000},
		{"-quick -records 6000 -exp fig5,fig10 -store RESULTS -json BENCH_store1.json", quick6000},
		{"-quick -records 6000 -exp fig10 -store OFFLINE", quick6000},
		{"-quick -records 6000 -exp clusterscale -hosts 4,16,64", quick6000},
		{"-quick -records 6000 -exp serve -hosts 4,16,64,256 -parallel 8", quick6000},
		{"-quick -records 6000 -exp fig5 -parallel 1 -timeseries ts1.json -trace tr1.json", "dbfdaf7da8989739754418119eade8bd"},
		{"-exp fig10,fig11 -records 100000 -workloads pr,ycsb", "ea680beda299250c14a1a03bce42a8d4"},
		{"-quick -workloads pr,pr", "0009fc00b7450558d1ed124b991fe3b8"},
		{"-list-schemes -records -5", ""},
		{"-list-workloads -exp nope", ""},

		{"-records -5", "error: records_per_core must be ≥ 0 (0 = base default), got -5"},
		{"-exp nope", `error: unknown experiment "nope" (have: ` + artefactIDs() + ")"},
		{"-hosts 0", `error: -hosts: "0" is not a host count in 1..256`},
		{"-hosts 4,x", `error: -hosts: "x" is not a host count in 1..256`},
		{"-hosts 4x,16", `error: -hosts: "4x" is not a host count in 1..256`},
		{"-hosts 16.5", `error: -hosts: "16.5" is not a host count in 1..256`},
		{"-workloads nope", `error: workload: unknown workload "nope"`},
		{"-workloads pr,", `error: workload: unknown workload ""`},
		{"-quick -timeseries ts.json -sample-interval 0s", `error: sample_interval must be positive, got "0s"`},
		{"-bogus", "error: flag provided but not defined: -bogus"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			args := strings.Fields(tc.args)
			fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			inv, err := parseArgs(fs, args)
			got := ""
			switch {
			case err != nil:
				got = "error: " + err.Error()
			case inv.list == nil:
				var keys []string
				for _, wl := range inv.opt.Workloads {
					for _, k := range migration.Kinds {
						keys = append(keys, inv.opt.Request(wl, k).Key().String())
					}
				}
				got = runSetDigest(keys)
			}
			if got != tc.want {
				t.Errorf("parseArgs(%q)\n got %s\nwant %s", args, got, tc.want)
			}
		})
	}
}

// runSetDigest is the service's job-ID digest: sha256 over the sorted keys,
// newline-terminated, truncated to 32 hex digits.
func runSetDigest(keys []string) string {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
