package harness

import (
	"bytes"
	"reflect"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
	"pipm/internal/workload"
)

// TestResolve pins what each spec field resolves to: the shape overrides go
// through ScaleForHosts and the MiB shift, zero means the base default,
// telemetry and audit resolve to the forms the run keys hash (audit
// unnormalised, as the golden key fixture pins it), and every bad value
// fails with its exact error.
func TestResolve(t *testing.T) {
	quick := QuickOptions()
	for _, tc := range []struct {
		name    string
		spec    SweepSpec
		want    func(o *Options)
		kinds   []migration.Kind
		wantErr string
	}{
		{name: "zero", spec: SweepSpec{}, want: func(o *Options) { *o = DefaultOptions() }},
		{name: "quick", spec: SweepSpec{Quick: true}},
		{name: "shape", spec: SweepSpec{Quick: true, Hosts: 64, Cores: 2, SharedMiB: 8},
			want: func(o *Options) {
				o.Cfg = ScaleForHosts(o.Cfg, 64)
				o.Cfg.CoresPerHost = 2
				o.Cfg.SharedBytes = 8 << 20
			}},
		{name: "budget", spec: SweepSpec{Quick: true, Records: 6000, Seed: -3},
			want: func(o *Options) { o.RecordsPerCore, o.Seed = 6000, -3 }},
		{name: "telemetry", spec: SweepSpec{Quick: true, SampleInterval: "1.5us", Trace: true},
			want: func(o *Options) {
				o.Telemetry = telemetry.Options{SampleInterval: 1500 * sim.Nanosecond, Trace: true}
			}},
		{name: "audit", spec: SweepSpec{Quick: true, Audit: "quantum"},
			want: func(o *Options) { o.Audit = audit.Options{Mode: audit.Quantum} }},
		{name: "audit-off", spec: SweepSpec{Quick: true, Audit: "off"}},
		{name: "names", spec: SweepSpec{Quick: true, Workloads: []string{"daxfs", "pr", "pr"}, Schemes: []string{"pipm", "native"}},
			want: func(o *Options) {
				o.Workloads = []workload.Params{mustWorkload("daxfs"), mustWorkload("pr"), mustWorkload("pr")}
			},
			kinds: []migration.Kind{migration.PIPM, migration.Native}},
		{name: "all", spec: SweepSpec{Quick: true, Schemes: []string{"all"}}},

		{name: "records<0", spec: SweepSpec{Records: -1}, wantErr: "records_per_core must be ≥ 0 (0 = base default), got -1"},
		{name: "hosts<0", spec: SweepSpec{Hosts: -1}, wantErr: "hosts must be ≥ 0 (0 = base default), got -1"},
		{name: "cores<0", spec: SweepSpec{Cores: -1}, wantErr: "cores_per_host must be ≥ 0 (0 = base default), got -1"},
		{name: "shared<0", spec: SweepSpec{SharedMiB: -1}, wantErr: "shared_mib must be ≥ 0 (0 = base default), got -1"},
		{name: "hosts>max", spec: SweepSpec{Hosts: 257}, wantErr: "config: Hosts = 257, want 1..256 (host IDs are 8 bits)"},
		{name: "interval", spec: SweepSpec{SampleInterval: "banana"}, wantErr: `sample_interval: time: invalid duration "banana"`},
		{name: "interval=0", spec: SweepSpec{SampleInterval: "0s"}, wantErr: `sample_interval must be positive, got "0s"`},
		{name: "audit-mode", spec: SweepSpec{Audit: "frantic"}, wantErr: `audit: unknown mode "frantic" (want off, quantum or paranoid)`},
		{name: "workload", spec: SweepSpec{Workloads: []string{"no-such"}}, wantErr: `workload: unknown workload "no-such"`},
		{name: "scheme", spec: SweepSpec{Schemes: []string{"all", "pipm"}},
			wantErr: `migration: unknown scheme "all" (known: [hemem hw-static local-only memtis native nomad os-skew pipm])`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, kinds, err := tc.spec.Resolve()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Resolve(%+v) error = %v, want %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := quick
			if tc.want != nil {
				tc.want(&want)
			}
			if !reflect.DeepEqual(o, want) {
				t.Errorf("Resolve(%+v) options\n got %+v\nwant %+v", tc.spec, o, want)
			}
			wantKinds := tc.kinds
			if wantKinds == nil {
				wantKinds = migration.Kinds
			}
			if !reflect.DeepEqual(kinds, wantKinds) {
				t.Errorf("Resolve(%+v) schemes %v, want %v", tc.spec, kinds, wantKinds)
			}
		})
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":           nil,
		"pr":         {"pr"},
		"pr, ycsb ,": {"pr", "ycsb", ""},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReplayMatchesGenerated replays each core's generator stream through
// the binary trace format and requires the Result Collect reports to be
// bit-identical to the generated run's: the encoding is lossless and a
// replayed run is reported by the same code.
func TestReplayMatchesGenerated(t *testing.T) {
	o := QuickOptions()
	req := o.Request(mustWorkload("pr"), migration.PIPM)
	req.Records = 8000
	want, _, _, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}

	m, err := machine.New(req.Cfg, req.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	am := m.AddressMap()
	for h := 0; h < req.Cfg.Hosts; h++ {
		for c := 0; c < req.Cfg.CoresPerHost; c++ {
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			gen := req.WL.NewReader(am, req.Cfg.Hosts, h, c, req.Records, req.Seed)
			for rec, ok := gen.Next(); ok; rec, ok = gen.Next() {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := trace.NewBinaryReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			m.SetTrace(h, c, r)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := Collect(m, req.WL.Name)
	if DigestResult(got) != DigestResult(want) {
		t.Fatalf("replayed run differs from the generated one:\n got %+v\nwant %+v", got, want)
	}
}
