package main

import (
	"regexp"
	"sort"
	"testing"
)

// BENCHMARK.json and the program must agree on every name, unit, direction
// and bound: the driver refuses a run that misses a listed metric.
func TestManifestMatchesTheProgram(t *testing.T) {
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got []string
	for _, w := range m.Workloads {
		got = append(got, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if want := append(got[:len(got):len(got)], wlRouted); !sameSet(want, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, want those of the program %v without %s", got, workloadNames, wlRouted)
	}
	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		byName := map[string]metricDef{}
		var want, have []string
		for _, d := range defs {
			byName[d.Name] = d
			want = append(want, d.Name)
		}
		for _, mm := range listed {
			have = append(have, mm.Name)
			d, ok := byName[mm.Name]
			if !ok {
				continue
			}
			if !name.MatchString(mm.Name) || !unit.MatchString(mm.Unit) {
				t.Errorf("%s %q: name or unit %q outside the allowed characters", kind, mm.Name, mm.Unit)
			}
			if mm.Unit != d.Unit || mm.Better != d.Better {
				t.Errorf("%s %q: BENCHMARK.json says %s/%s, the program %s/%s", kind, mm.Name, mm.Unit, mm.Better, d.Unit, d.Better)
			}
			if bounded && (mm.Bound != d.Bound || mm.Bound <= 0 || mm.Bound > 0.25) {
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the program, must be in (0, 0.25]", kind, mm.Name, mm.Bound, d.Bound)
			}
		}
		if !sameSet(have, want) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, have, want)
		}
	}
	check("end-to-end", m.EndToEnd, gatedE2E, true)
	check("per-layer", m.PerLayer, perLayer, false)
	for _, d := range ungatedE2E {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("ungated %q: name or unit outside the allowed characters", d.Name)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Command) != 2 || m.Command[0] != "bash" || m.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
