package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"sort"
	"strings"
	"testing"

	"pipm/internal/audit"
)

// TestParseArgs maps validate argument vectors to the run set of the
// audited sweep and the replication seeds — sha256 over the sorted run keys,
// the service's job-ID digest — or to their exact error. Rows cover every
// invocation in the CI workflow, the README and the package doc, plus each
// negative or zero override.
//
// The digests were computed at the commit before the front ends shared a
// resolver, with audited keys in the resolver's {Mode} form (plus Interval
// when -audit-interval is set) — the form the service and the golden key
// fixture use. The auditor defaults those options the same way either way,
// and audited runs never reach the result store.
func TestParseArgs(t *testing.T) {
	const quick = "c353ae6ba121a929372d2a1009c1337a"
	for _, tc := range []struct {
		args string
		want string // run-set digest, or "error: <message>"
	}{
		{"-quick", quick},
		{"-quick -json validate.json", quick},
		{"-quick -records 0 -audit quantum -audit-interval 0", quick},
		{"-quick -seeds 3 -parallel 8", "4c9416af0faab5401b47f000a537267a"},
		{"-records 200000 -audit paranoid", "cd8f1605cf987b551d011730ecf2fe06"},
		{"-quick -seeds 3 -workloads pr -records 20000", "ad91350b02aa448750361e68abeae533"},
		{"-audit paranoid -json validate.json", "e23a203e1f5714648be5c8a95aceef6f"},
		{"-quick -audit off", "a68b137f0e205745cdbaef9674e13aa8"},
		{"-quick -audit-interval 4", "205aadc0e0701afb5e75598e5fa01c4f"},
		{"-quick -schemes pipm,native -seeds 1", "5824e2816a895b668f8fcad72d700c6f"},

		{"-records -5", "error: records_per_core must be ≥ 0 (0 = base default), got -5"},
		{"-seeds 0", "error: -seeds must be ≥ 1, got 0"},
		{"-seeds -2", "error: -seeds must be ≥ 1, got -2"},
		{"-audit frantic", `error: audit: unknown mode "frantic" (want off, quantum or paranoid)`},
		{"-audit=", "error: -audit: want off, quantum or paranoid"},
		{"-schemes all", `error: -schemes: unknown scheme "all" (omit the flag for every scheme)`},
		{"-schemes nope", `error: migration: unknown scheme "nope" (known: [hemem hw-static local-only memtis native nomad os-skew pipm])`},
		{"-workloads nope", `error: workload: unknown workload "nope"`},
		{"-bogus", "error: flag provided but not defined: -bogus"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			fs := flag.NewFlagSet("validate", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			inv, err := parseArgs(fs, strings.Fields(tc.args))
			got := ""
			if err != nil {
				got = "error: " + err.Error()
			} else {
				got = runSetDigest(inv)
			}
			if got != tc.want {
				t.Errorf("parseArgs(%q)\n got %s\nwant %s", tc.args, got, tc.want)
			}
		})
	}
}

// runSetDigest digests the keys of the audited sweep (when enabled) and of
// every replication seed, with the service's job-ID digest.
func runSetDigest(inv *invocation) string {
	o := inv.opt
	var keys []string
	for _, wl := range o.Harness.Workloads {
		for _, k := range o.Schemes {
			req := o.Harness.Request(wl, k)
			if req.Audit.Enabled() {
				keys = append(keys, req.Key().String())
			}
			for s := 0; s < o.Seeds; s++ {
				r := req
				r.Audit = audit.Options{}
				r.Seed += int64(s)
				keys = append(keys, r.Key().String())
			}
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
