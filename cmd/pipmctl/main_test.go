package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipm/internal/service"
)

// TestParseSubmit maps pipmctl submit argument vectors to the job ID the
// daemon derives from the submitted spec (service.Expand), or to the exact
// error the daemon answers with. Every flag the user sets reaches the spec,
// zero and negative values included, so the daemon's resolver judges them.
func TestParseSubmit(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specFile, []byte(`{"quick":true,"workloads":["pr","canneal","ycsb"],"records_per_core":6000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Job IDs computed at the commit before the front ends shared a
	// resolver; ci is the CI service smoke's submission.
	const (
		ci    = "c539cdffefe18080727f1c5309d2518a"
		quick = "2311cf7e525c73993635e5dedf82f6e5"
	)
	for _, tc := range []struct {
		args string // "spec.json" stands for specFile, keeping subtest names stable
		want string // job ID, or "error: <message>"
	}{
		{"-quick -workloads pr,canneal,ycsb -schemes all -records 6000", ci},
		{"-quick -workloads pr,canneal -schemes all -records 6000", "cb0b2e065a9319028cbd66d841f280a3"},
		{"-quick", quick},
		{"-quick -records 0 -seed 0 -workloads= -schemes=", quick},
		{"-f spec.json", ci},
		{"-f spec.json -schemes all -wait", ci},
		{"-f spec.json -records 0 -workloads=", quick},
		{"-quick -workloads pr -schemes pipm -audit quantum", "45c39f77b151a365198853012918b93e"},
		{"-quick -workloads pr -schemes pipm -seed 3 -timeseries 10us -trace", "8a1d93486e0c90bd01bd8d27298a9f03"},

		{"-quick -records -5", "error: records_per_core must be ≥ 0 (0 = base default), got -5"},
		{"-f spec.json -quick=false -records -1", "error: records_per_core must be ≥ 0 (0 = base default), got -1"},
		{"-quick -timeseries 0s", `error: sample_interval must be positive, got "0s"`},
		{"-quick -audit frantic", `error: audit: unknown mode "frantic" (want off, quantum or paranoid)`},
		{"-f spec.json-missing", "error: open spec.json-missing: no such file or directory"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			args := strings.Fields(strings.ReplaceAll(tc.args, "spec.json", specFile))
			fs := flag.NewFlagSet("pipmctl submit", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			spec, _, _, err := parseSubmit(fs, args)
			var id string
			if err == nil {
				_, id, err = service.Expand(spec, 0)
			}
			got := id
			if err != nil {
				got = "error: " + err.Error()
			}
			if want := strings.ReplaceAll(tc.want, "spec.json", specFile); got != want {
				t.Errorf("submit %q\n got %s\nwant %s", args, got, want)
			}
		})
	}
}
