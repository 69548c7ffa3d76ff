package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// set-up probe re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type metricDoc struct{ Name, Unit string }

type benchmarkDoc struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDoc             `json:"end_to_end"`
	PerLayer  []metricDoc             `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// wantMetrics checks the report carries exactly the named metrics, with
// their units.
func wantMetrics(t *testing.T, rep report, want []metricDoc) {
	t.Helper()
	got := make(map[string]string, len(rep.metrics))
	for _, m := range rep.metrics {
		got[m.name] = m.unit
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", rep.workload, len(got), len(want))
	}
	for _, m := range want {
		unit, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", rep.workload, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", rep.workload, m.Name, unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkDoc(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload at minimal size, untraced and traced, and
// requires every output check to pass and every listed metric to appear.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkDoc(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				opts := options{seed: 3, trace: traced, smoke: true, tmp: t.TempDir(), probes: 1}
				rep, err := bench(context.Background(), w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct {
					t.Fatalf("trace=%v: checks failed: %v", traced, rep.problems)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("trace=%v: %d of %d cells failed", traced, rep.failed, rep.attempted)
				}
				if traced {
					wantMetrics(t, rep, doc.PerLayer)
					// The sweep's timer encloses the tracer's Backend.Run span,
					// so the gap is positive; 0 would mean the check compares
					// the span sum with itself.
					for _, m := range rep.metrics {
						if m.name == "trace.gap_share" && !(m.value > 0 && m.value < 1) {
							t.Errorf("trace.gap_share = %v, want in (0, 1)", m.value)
						}
					}
				} else {
					wantMetrics(t, rep, doc.EndToEnd)
					for _, m := range rep.metrics {
						if !(m.value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
						}
					}
				}
			}
		})
	}
}

// TestTamperedExportFails proves the output checks bite: one changed byte in
// any sweep's export fails its pass.
func TestTamperedExportFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &runner{w: w, seed: 3, rounds: w.smokeRounds, tmp: t.TempDir()}
			ctx := context.Background()
			ref, err := r.reference(ctx)
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.pass(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPass(w, p, ref); err != nil {
				t.Fatalf("untampered pass: %v", err)
			}
			for i := range p.sweeps {
				tampered := p
				tampered.sweeps = append([]sweepRun(nil), p.sweeps...)
				export := bytes.Clone(p.sweeps[i].export)
				field := []byte(`"final_dist":`)
				at := bytes.Index(export, field)
				if at < 0 {
					t.Fatalf("%s export has no final_dist", p.sweeps[i].substrate)
				}
				at += len(field)
				export[at] ^= 1
				tampered.sweeps[i].export = export
				if err := checkPass(w, tampered, ref); !errors.Is(err, errCheck) {
					t.Errorf("%s export with byte %d flipped: check returned %v", p.sweeps[i].substrate, at, err)
				}
				short := p
				short.sweeps = append([]sweepRun(nil), p.sweeps...)
				short.sweeps[i].results = p.sweeps[i].results[1:]
				if err := checkPass(w, short, ref); !errors.Is(err, errCheck) {
					t.Errorf("%s sweep missing a cell: check returned %v", p.sweeps[i].substrate, err)
				}
			}
		})
	}
}

// TestResilienceCheck proves the (f, ε) check rejects a paper-grid cell
// ending outside ε.
func TestResilienceCheck(t *testing.T) {
	w, err := lookupWorkload("paper-grid")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, seed: 3, rounds: w.smokeRounds, tmp: t.TempDir()}
	var p pass
	if err := r.sweepOn(context.Background(), "inprocess", &p); err != nil {
		t.Fatal(err)
	}
	results := p.sweeps[0].results
	if err := checkResilience(results); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].F == 1 && results[i].Filter == "cwtm" {
			results[i].FinalDist = 1.01 * paperEpsilon
			break
		}
	}
	if err := checkResilience(results); !errors.Is(err, errCheck) {
		t.Fatalf("a cwtm cell at 1.01 ε: check returned %v", err)
	}
}

// TestGroupTails pins the tail statistic: passes are grouped in order, the
// last group takes the remainder, and each group is cut on its own.
func TestGroupTails(t *testing.T) {
	mk := func(ms ...float64) pass { return pass{cellMS: ms} }
	passes := []pass{mk(1, 2), mk(3, 4), mk(10, 20), mk(30, 40), mk(50, 60)}
	tails, samples := groupTails(passes, 2, 1)
	if samples != 10 || len(tails) != 2 || tails[0] != 4 || tails[1] != 60 {
		t.Errorf("groups of 2 over 5 passes: tails %v from %d samples, want [4 60] from 10", tails, samples)
	}
	tails, samples = groupTails(passes[:1], 2, 0.5)
	if samples != 2 || len(tails) != 1 || tails[0] != 1.5 {
		t.Errorf("fewer passes than a group: tails %v from %d samples, want [1.5] from 2", tails, samples)
	}
}
