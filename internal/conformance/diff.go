package conformance

import (
	"fmt"
	"sort"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/trace"
)

// RunResult is one machine run under the conformance harness.
type RunResult struct {
	Scheme     migration.Kind
	Events     uint64                 // tracked accesses
	Violations []string               // golden + final-image + audit findings
	Image      map[config.Addr]uint64 // end-of-run memory image
}

// Failed reports whether the run diverged from the golden model or broke
// a coherence invariant.
func (r RunResult) Failed() bool { return len(r.Violations) > 0 }

// RunScheme executes the per-core traces (indexed host*CoresPerHost+core)
// on a fresh machine under scheme, with the golden model and the coherence
// auditor attached, and reports everything that went wrong.
func RunScheme(cfg config.Config, scheme migration.Kind, traces [][]trace.Record) (RunResult, error) {
	if want := cfg.Hosts * cfg.CoresPerHost; len(traces) != want {
		return RunResult{}, fmt.Errorf("conformance: %d traces for %d cores", len(traces), want)
	}
	m, err := machine.New(cfg, scheme)
	if err != nil {
		return RunResult{}, err
	}
	g := NewGolden()
	if err := m.EnableValueTracking(g.Observe); err != nil {
		return RunResult{}, err
	}
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		return RunResult{}, err
	}
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, trace.NewSliceReader(traces[h*cfg.CoresPerHost+c]))
		}
	}
	if err := m.Run(); err != nil {
		return RunResult{}, err
	}
	res := RunResult{Scheme: scheme, Events: m.Observations(), Image: m.FinalImage()}
	res.Violations = append(res.Violations, g.Violations()...)
	res.Violations = append(res.Violations, g.CheckFinalImage(res.Image)...)
	for _, v := range m.AuditViolations() {
		res.Violations = append(res.Violations, "audit: "+v)
	}
	return res, nil
}

// DiffImages reports where two final memory images disagree. Valid as an
// equivalence check only for traces where each line has a single writing
// core: write tokens then depend only on program order, so any two schemes
// must converge to the same image.
func DiffImages(a, b map[config.Addr]uint64) []string {
	var lines []config.Addr
	for l := range a {
		lines = append(lines, l)
	}
	for l := range b {
		if _, ok := a[l]; !ok {
			lines = append(lines, l)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var diffs []string
	for _, l := range lines {
		if av, bv := a[l], b[l]; av != bv {
			diffs = append(diffs, fmt.Sprintf("line %#x: %#x vs %#x", uint64(l), av, bv))
			if len(diffs) >= maxViolations {
				break
			}
		}
	}
	return diffs
}
