package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the self-test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameMetrics fails unless got names exactly the metrics want lists, with
// the same units.
func sameMetrics(t *testing.T, workload string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.name]
		if !ok {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not list", workload, m.name)
		} else if unit != m.unit {
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", workload, m.name, m.unit, unit)
		}
		if seen[m.name] {
			t.Errorf("%s: %s emitted twice", workload, m.name)
		}
		seen[m.name] = true
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s: missing metrics %v", workload, missing)
	}
}

// runShort runs one workload briefly, untraced and traced, and checks that
// every run is clean: no failed operation and every answer equal to the
// serial reference.
func runShort(t *testing.T, c contract, sp spec, seed int64) {
	f, err := setup(1, sp.device, sp.store)
	if err != nil {
		t.Fatal(err)
	}
	users, err := heldOut(seed, 2, trials)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		for i := range u.windows {
			if sp.http {
				u.windows[i].body, err = json.Marshal(recordingPayload(u.windows[i].rec))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const d = 700 * time.Millisecond
	res, err := execute(sp, f, users, d, 700, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := execute(sp, f, users, d, 700, tr)
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(f.pipe, sp.device, users)
	for _, r := range []*runResult{res, traced} {
		rep := orc.check(r)
		if len(rep.mismatches) != 0 {
			t.Errorf("%s seed %d: %d answers differ from the serial reference: %v", sp.name, seed, len(rep.mismatches), rep.mismatches)
		}
		if rep.checked == 0 {
			t.Errorf("%s seed %d: no answer was checked", sp.name, seed)
		}
		if r.failed != 0 {
			t.Errorf("%s seed %d: %d of %d operations failed: %v", sp.name, seed, r.failed, r.attempted, r.failures)
		}
	}

	e2e := map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	got := endToEnd(res, f.setupS)
	sameMetrics(t, sp.name, got, e2e)
	for _, m := range got {
		if m.name == "success_frac" && m.value != 1 {
			t.Errorf("%s: success_frac %v, want 1", sp.name, m.value)
		}
	}
	layers := map[string]string{}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	sameMetrics(t, sp.name, perLayer(res, traced, newReplayer(f.pipe, sp.device, sp.http, tr), f), layers)

	// A wrong answer is a failed operation: corrupting one checked answer
	// by one ulp must show as a mismatch and lower success_frac.
	for _, rp := range res.replies {
		if len(rp.ans.probs) == 0 || rp.ans.personalized {
			continue
		}
		p := append([]float64(nil), rp.ans.probs...)
		p[0] = math.Nextafter(p[0], 2)
		rp.ans.probs = p
		break
	}
	if rep := orc.check(res); len(rep.mismatches) != 1 {
		t.Errorf("%s: %d mismatches after corrupting one answer, want 1", sp.name, len(rep.mismatches))
	}
	for _, m := range endToEnd(res, f.setupS) {
		if m.name == "success_frac" && m.value >= 1 {
			t.Errorf("%s: success_frac %v after corrupting one answer, want below 1", sp.name, m.value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(specs) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark defines %v", names, workloadNames())
	}
	for _, name := range names {
		sp, ok := findSpec(name)
		if !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not define", name)
		}
		t.Run(name, func(t *testing.T) { runShort(t, c, sp, 1) })
	}
	// A second seed must run clean too.
	sp, _ := findSpec("stream_map")
	t.Run("stream_map_seed2", func(t *testing.T) { runShort(t, c, sp, 2) })
}
