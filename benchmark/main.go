// Command benchmark is the repository's benchmark. It trains the CLEAR
// pipeline, serves it from a real serve.Server in this process, drives one
// named workload for a fixed time, checks every answer against a serial
// reference, and prints each metric by name with its unit. The last line
// of standard output is the JSON result.
//
//	go run . --workload stream_map --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, replays the traced run's
// answered requests through the layers' public functions, reports the
// per-layer metrics, and writes the spans to .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// Inputs per seed: 16 held-out volunteers per archetype, 30 trials each, so
// a session streams 30 windows and labels its first 6. setup_s is the
// median of setupReps set-ups.
const (
	perArchetype = 16
	trials       = 30
	setupReps    = 21
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "workload seed: generates the held-out users")
		seconds   = flag.Float64("seconds", 10, "measured interval per run")
		traceFlag = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		rate      = flag.Float64("population-rate", 700, "population: aggregate windows per second")
	)
	flag.Parse()
	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || *rate <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds and --population-rate must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	obs.SetLogLevel(slog.LevelWarn)
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	f, err := setup(setupReps, sp.device, sp.store)
	mustf(err, "setup")
	users, err := heldOut(*seed+1_000_000, perArchetype, trials)
	mustf(err, "held-out users")
	if sp.http {
		for _, u := range users {
			for i := range u.windows {
				u.windows[i].body, err = json.Marshal(recordingPayload(u.windows[i].rec))
				mustf(err, "encode recording")
			}
		}
	}
	dur := time.Duration(*seconds * float64(time.Second))

	res, err := execute(sp, f, users, dur, *rate, nil)
	mustf(err, "run")
	// The check comes first: it counts each mismatch as a failed
	// operation, which success_frac reports.
	orc := newOracle(f.pipe, sp.device, users)
	reports := []oracleReport{orc.check(res)}
	attempted, failed := res.attempted, res.failed
	failures := res.failures

	var metrics []metric
	if *traceFlag == 0 {
		metrics = endToEnd(res, f.setupS)
	} else {
		// The traced run only feeds the replay and the overhead estimate, so
		// half the measured interval suffices.
		tr := newTracer()
		traced, err := execute(sp, f, users, dur/2, *rate, tr)
		mustf(err, "traced run")
		reports = append(reports, orc.check(traced))
		attempted += traced.attempted
		failed += traced.failed
		failures = append(failures, traced.failures...)
		rp := newReplayer(f.pipe, sp.device, sp.http, tr)
		metrics = perLayer(res, traced, rp, f)
		mustf(os.MkdirAll(".bench_build", 0o755), "create .bench_build")
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, *seed))
		mustf(tr.write(path), "write spans")
		printAttribution(tr, rp, sp.name)
	}

	checked, unverified, mismatches := 0, 0, 0
	for _, rep := range reports {
		checked += rep.checked
		unverified += rep.unverified
		mismatches += len(rep.mismatches)
		for _, m := range rep.mismatches {
			fmt.Println("mismatch", m)
		}
	}
	for _, f := range failures {
		fmt.Println("failure", f)
	}
	fmt.Printf("check %s answers_checked %d unverified %d mismatches %d failed %d attempted %d\n",
		sp.name, checked, unverified, mismatches, failed, attempted)
	for _, m := range metrics {
		fmt.Printf("metric %s %s %.6g %s\n", sp.name, m.name, m.value, m.unit)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: mismatches == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	js, err := json.Marshal(out)
	mustf(err, "encode result")
	fmt.Println(string(js))
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
