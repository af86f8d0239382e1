package migration

import (
	"strings"
	"testing"
)

// TestKindRoundTrip pins ParseKind as the exact inverse of Kind.String for
// every registered scheme, and the registry as consistent with Kinds.
func TestKindRoundTrip(t *testing.T) {
	if len(Kinds) != len(Registered()) {
		t.Fatalf("Kinds has %d entries, Registered %d", len(Kinds), len(Registered()))
	}
	for _, k := range Kinds {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no registered name", k)
			continue
		}
		got, err := ParseKind(name)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
			continue
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", name, got, k)
		}
		s, ok := Lookup(k)
		if !ok {
			t.Errorf("Lookup(%v) missing", k)
			continue
		}
		if s.Name != name || s.Kind != k {
			t.Errorf("Lookup(%v) = {%v %q}, want {%v %q}", k, s.Kind, s.Name, k, name)
		}
	}
}

// TestRegistryFamilies pins each scheme's family and family-derived
// predicates, and that kernel descriptors can actually build their policy.
func TestRegistryFamilies(t *testing.T) {
	wantFamily := map[Kind]Family{
		Native:    FamilyNative,
		Nomad:     FamilyKernel,
		Memtis:    FamilyKernel,
		HeMem:     FamilyKernel,
		OSSkew:    FamilyKernel,
		HWStatic:  FamilyHardware,
		PIPM:      FamilyHardware,
		LocalOnly: FamilyLocalOnly,
	}
	for _, s := range Registered() {
		if s.Family != wantFamily[s.Kind] {
			t.Errorf("%v: family %v, want %v", s.Kind, s.Family, wantFamily[s.Kind])
		}
		if s.Kind.Kernel() != (s.Family == FamilyKernel) {
			t.Errorf("%v: Kernel() = %v inconsistent with family %v", s.Kind, s.Kind.Kernel(), s.Family)
		}
		if (s.NewPolicy != nil) != (s.Family == FamilyKernel) {
			t.Errorf("%v: NewPolicy presence inconsistent with family %v", s.Kind, s.Family)
		}
		if s.NewPolicy != nil {
			p := s.NewPolicy(PolicyParams{Pages: 64, Hosts: 2, Threshold: 4})
			if p == nil {
				t.Errorf("%v: NewPolicy returned nil", s.Kind)
			} else if p.Name() != s.Name {
				t.Errorf("%v: policy name %q != scheme name %q", s.Kind, p.Name(), s.Name)
			}
		}
	}
	if k, err := ParseKind("pipm"); err != nil || k != PIPM {
		t.Errorf("ParseKind(pipm) = %v, %v", k, err)
	}
}

// TestParseKindUnknown is the error path: unknown names must fail with a
// message naming the offender, never alias to a valid scheme.
func TestParseKindUnknown(t *testing.T) {
	for _, bad := range []string{"", "PIPM", "tpp", "local_only", "native "} {
		k, err := ParseKind(bad)
		if err == nil {
			t.Errorf("ParseKind(%q) = %v, want error", bad, k)
			continue
		}
		if !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("ParseKind(%q) error %q does not mention the unknown scheme", bad, err)
		}
	}
	if _, err := ByName("tpp"); err == nil {
		t.Error("ByName(tpp) succeeded, want error")
	}
	if _, ok := Lookup(Kind(250)); ok {
		t.Error("Lookup(250) succeeded, want miss")
	}
}
