package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pipm/internal/config"
	"pipm/internal/trace"
)

// TestParseArgs maps pipmsim argument vectors to the run keys they resolve
// to (the run, then the native baseline with -compare) or to their exact
// error. Rows cover the README and package-doc invocations, the seed and
// record-budget semantics that differ from the spec's "0 = default", and
// every negative or zero override.
func TestParseArgs(t *testing.T) {
	// Keys computed at the commit before the front ends shared a resolver.
	const (
		defaultPIPM = "0fe29d2e6b46916edb77f4f4ac4ef251ffa26db9ef03c9b6a7c2998f7c4d4070"
		native20k   = "6946e22c8b63f06e26b642a8db37459f213ea6f53a1644061af38e2beff9d010"
	)
	for _, tc := range []struct {
		args []string
		want string // run keys, comma-separated, or "error: <message>"
	}{
		{nil, defaultPIPM},
		{[]string{"-workload", "pr", "-scheme", "pipm", "-records", "400000"}, defaultPIPM},
		{[]string{"-hosts", "0", "-cores", "0", "-shared", "0"}, defaultPIPM},
		{[]string{"-sample-interval", "-1s"}, defaultPIPM}, // ignored without -timeseries
		{[]string{"-tracedir", "trc"}, defaultPIPM},
		{[]string{"-workload", "ycsb", "-scheme", "native", "-hosts", "4", "-cores", "2", "-shared", "16"},
			"a328dede7c98feeb89227c3ff34240854106f471059384b92df67df82ebcfa80"},
		{[]string{"-workload", "pr", "-scheme", "pipm", "-timeseries", "ts.csv", "-sample-interval", "10us", "-trace", "tr.json"},
			"7a03a6a5e3e8fcef17b560363e0bbd459c4f411de28388a61cba69755464be28"},
		{[]string{"-seed", "0"}, "86618d2dbecb9a7dbacb9b7ac0589ff7c807be943c5b0650f8b2589c5da7682b"},
		{[]string{"-seed", "7", "-records", "1000"}, "0a7b733134a38df6c73edb52f86bbe9d0a6d84d3f16f7f31130f4ec86af59a1e"},
		{[]string{"-hosts", "64", "-records", "1000"}, "14ec04ef57958cd87db7b7889dbdd2100f71c01a5a0009b25cca1c89824ea716"},
		{[]string{"-compare", "-scheme", "memtis", "-records", "20000"},
			"07ad62b78a553625deae467b31a5386282abb8f5554cbd9307545f29bc389afa," + native20k},
		{[]string{"-compare", "-scheme", "native", "-records", "20000"}, native20k},
		{[]string{"-compare", "-records", "20000", "-trace", "tr.json"},
			"b4527e1b9a4dbb56f161eb43f314da1fa3518183caf9ae0fdbc53c6512206b7a," + native20k},
		{[]string{"-list-schemes", "-records", "-5"}, ""},
		{[]string{"-list-workloads", "-workload", "nope"}, ""},

		{[]string{"-records", "0"}, "error: -records must be ≥ 1, got 0"},
		{[]string{"-records", "-5"}, "error: records_per_core must be ≥ 0 (0 = base default), got -5"},
		{[]string{"-hosts", "-1"}, "error: hosts must be ≥ 0 (0 = base default), got -1"},
		{[]string{"-cores", "-1"}, "error: cores_per_host must be ≥ 0 (0 = base default), got -1"},
		{[]string{"-shared", "-1"}, "error: shared_mib must be ≥ 0 (0 = base default), got -1"},
		{[]string{"-scheme", "all"}, `error: -scheme names one scheme, got "all"`},
		{[]string{"-scheme", "nope"},
			`error: migration: unknown scheme "nope" (known: [hemem hw-static local-only memtis native nomad os-skew pipm])`},
		{[]string{"-workload", "nope"}, `error: workload: unknown workload "nope"`},
		{[]string{"-timeseries", "ts.json", "-sample-interval", "0s"}, `error: sample_interval must be positive, got "0s"`},
		{[]string{"-hosts", "1000"}, "error: config: Hosts = 1000, want 1..256 (host IDs are 8 bits)"},
		{[]string{"-bogus"}, "error: flag provided but not defined: -bogus"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("pipmsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			inv, err := parseArgs(fs, tc.args)
			got := ""
			if err != nil {
				got = "error: " + err.Error()
			} else {
				var keys []string
				for _, r := range inv.reqs {
					keys = append(keys, r.Key().String())
				}
				got = strings.Join(keys, ",")
			}
			if got != tc.want {
				t.Errorf("parseArgs(%q)\n got %s\nwant %s", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunFromTracesRejectsBadTraces replays a tracegen-style directory:
// clean, then with one file cut mid-stream, then with one record outside
// every mapped range. Both bad directories must fail with the file named.
func TestRunFromTracesRejectsBadTraces(t *testing.T) {
	fs := flag.NewFlagSet("pipmsim", flag.ContinueOnError)
	inv, err := parseArgs(fs, []string{"-hosts", "2", "-cores", "1", "-shared", "4"})
	if err != nil {
		t.Fatal(err)
	}
	req := inv.reqs[0]
	am := config.NewAddressMap(&req.Cfg)
	encode := func(recs ...trace.Record) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// writeDir writes every core's stream, with file h0c0.trc replaced by
	// h0c0 when it is non-nil.
	writeDir := func(h0c0 []byte) string {
		dir := t.TempDir()
		for h := 0; h < req.Cfg.Hosts; h++ {
			r := req.WL.NewReader(am, req.Cfg.Hosts, h, 0, 2000, 1)
			var recs []trace.Record
			for rec, ok := r.Next(); ok; rec, ok = r.Next() {
				recs = append(recs, rec)
			}
			data := encode(recs...)
			if h == 0 && h0c0 != nil {
				data = h0c0
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("h%dc0.trc", h)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	if _, _, err := runFromTraces(req, writeDir(nil)); err != nil {
		t.Fatalf("clean traces: %v", err)
	}

	clean, err := os.ReadFile(filepath.Join(writeDir(nil), "h0c0.trc"))
	if err != nil {
		t.Fatal(err)
	}
	cut := append(slices.Clip(clean[:len(clean)/2]), 0xff)
	_, _, err = runFromTraces(req, writeDir(cut))
	if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), "h0c0.trc") {
		t.Errorf("truncated trace: err = %v, want ErrBadFormat naming h0c0.trc", err)
	}

	for name, addr := range map[string]config.Addr{
		"unmapped":            1 << 50,
		"other host's memory": am.PrivateAddr(1, 0),
	} {
		stray := encode(trace.Record{Addr: am.SharedAddr(0)}, trace.Record{Addr: addr})
		_, _, err = runFromTraces(req, writeDir(stray))
		if want := fmt.Sprintf("%#x", uint64(addr)); err == nil ||
			!strings.Contains(err.Error(), "h0c0.trc") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s address: err = %v, want an error naming h0c0.trc and %s", name, err, want)
		}
	}
}
