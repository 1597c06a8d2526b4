package bench

import (
	"reflect"
	"testing"
)

// fingerprintExempt lists the exported RunSpec fields that are allowed
// to NOT influence the fingerprint, with the reason why. Everything
// else must change the content address when mutated — otherwise two
// different experiments could collide in the run cache and a stale
// figure point would be served as fresh. Every field is hashed today.
var fingerprintExempt = map[string]string{}

// mutate returns a copy of the field value changed to a different,
// same-typed value. Extend the switch when RunSpec grows a field of a
// new kind — failing loudly here is the point of the test.
func mutate(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~mutated")
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		t.Fatalf("RunSpec.%s has kind %v: teach mutate() about it so the exhaustiveness check keeps covering every field", name, v.Kind())
	}
}

// TestFingerprintCoversEveryExportedField proves by construction that
// no exported RunSpec field can be added without either entering the
// fingerprint or being explicitly exempted above. This is the
// machine-checked version of the comment block in fingerprint.go: a
// new field that silently misses the hash would make distinct runs
// share a cache key.
func TestFingerprintCoversEveryExportedField(t *testing.T) {
	baseline := RunSpec{
		Scenario: "fig7a",
		Series:   "gat",
		X:        8,
		Nodes:    8,
		Warmup:   2,
		Iters:    16,
		Seed:     42,
		Jitter:   0.05,
		App:      "jacobi3d",
		Machine:  "summit-ish",
	}
	const salt = "exhaustive-test-salt"
	base := baseline.fingerprint(salt)

	rt := reflect.TypeOf(baseline)
	seen := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		seen[f.Name] = true
		spec := baseline
		mutate(t, reflect.ValueOf(&spec).Elem().Field(i), f.Name)
		changed := spec.fingerprint(salt) != base
		_, exempt := fingerprintExempt[f.Name]
		switch {
		case changed && exempt:
			t.Errorf("RunSpec.%s is listed in fingerprintExempt but mutating it changed the fingerprint; drop the stale exemption", f.Name)
		case !changed && !exempt:
			t.Errorf("RunSpec.%s does not influence the fingerprint and is not in fingerprintExempt: two specs differing only in %s would collide in the run cache", f.Name, f.Name)
		}
	}

	// The exempt set may only name fields that still exist, so renames
	// cannot leave a dead entry silently covering a future field.
	for name := range fingerprintExempt {
		if !seen[name] {
			t.Errorf("fingerprintExempt names %q, which is not an exported RunSpec field", name)
		}
	}
}
