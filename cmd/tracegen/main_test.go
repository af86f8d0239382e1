package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestParseArgs maps tracegen argument vectors to the stream they name, or
// to the exact error: a host or core outside the configuration and a
// negative record count fail before any generator is built.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // "workload host core records seed", or "error: <message>"
	}{
		{"-workload pr -records 20000 -outdir trc", "pr 0 0 20000 1"},
		{"-workload ycsb -host 1 -core 0 -records 100000 -out ycsb.trc", "ycsb 1 0 100000 1"},
		{"-workload pr -stats", "pr 0 0 100000 1"},
		{"-workload llmserve -host 3 -core 3 -records 0 -seed 0 -stats", "llmserve 3 3 0 0"},

		{"-host 99 -stats", "error: -host 99 out of range: the configuration has hosts 0..3"},
		{"-host -1 -stats", "error: -host -1 out of range: the configuration has hosts 0..3"},
		{"-core 99 -stats", "error: -core 99 out of range: each host has cores 0..3"},
		{"-core -1 -out x.trc", "error: -core -1 out of range: each host has cores 0..3"},
		{"-records -5 -stats", "error: -records must be ≥ 0, got -5"},
		{"-workload nope -stats", `error: workload: unknown workload "nope"`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			inv, err := parseArgs(fs, strings.Fields(tc.args))
			var got string
			if err != nil {
				got = "error: " + err.Error()
			} else {
				got = fmt.Sprintf("%s %d %d %d %d", inv.wl.Name, inv.host, inv.core, inv.records, inv.seed)
			}
			if got != tc.want {
				t.Errorf("parseArgs(%q)\n got %s\nwant %s", tc.args, got, tc.want)
			}
		})
	}
}
