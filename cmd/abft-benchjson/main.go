// Command abft-benchjson converts `go test -bench` output into the repo's
// committed bench-trajectory schema: one JSON document, "byzopt-bench/1",
// with ns/op, B/op, allocs/op, and any custom b.ReportMetric units per
// benchmark, in input order. CI runs the seq-vs-par benchmark suite with
// -benchtime 1x and uploads the converted BENCH_pr4.json as the build's
// bench-trajectory artifact, so every PR leaves a machine-readable
// performance record.
//
// Input on stdin is either the raw text of `go test -bench` or the
// test2json stream of `go test -bench -json` (benchmark result lines are
// extracted from the events' Output fields); output is the JSON document on
// stdout. The command exits nonzero when no benchmark results are found, so
// a misconfigured CI step cannot upload an empty trajectory.
//
// Usage:
//
//	go test -run XXX -bench . -benchtime 1x -benchmem -json ./... | abft-benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Schema identifies the output document format.
const Schema = "byzopt-bench/1"

// Benchmark is one converted benchmark result.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// GOMAXPROCS suffix, e.g. "BenchmarkKrumScores/n=50/d=1000/workers=8-16".
	Name string `json:"name"`
	// Iterations is the measured iteration count (1 under -benchtime 1x).
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp, and AllocsPerOp are the standard metrics;
	// BytesPerOp/AllocsPerOp require -benchmem and are omitted otherwise.
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries any custom b.ReportMetric units (final_dist,
	// checksum, ...), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the full converted output.
type Document struct {
	Schema     string      `json:"schema"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	doc, err := Convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abft-benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "abft-benchjson:", err)
		os.Exit(1)
	}
}

// event is the subset of the test2json record the converter consumes. Test
// carries the benchmark name for result lines the test runner printed
// without one (under -json, only the first sub-benchmark of a run gets its
// name and result in a single output line; the rest arrive as bare
// "<iterations>\t<metrics>" outputs attributed via the Test field).
type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// Convert reads benchmark output (raw or test2json) and builds the
// document. It fails when the input yields no benchmark results at all —
// the converted file must be populated to be worth uploading.
//
// Benchmarks whose canonical name repeats are recorded once, keeping the
// first measurement: the test runner disambiguates same-named runs with a
// "#01" suffix (e.g. a workers axis of {1, GOMAXPROCS} on a single-core
// machine emits both "…/workers=1" and "…/workers=1#01"), and a trajectory
// keyed by name must not carry two rows for one configuration.
func Convert(r io.Reader) (*Document, error) {
	doc := &Document{Schema: Schema}
	seen := make(map[string]bool)
	add := func(b Benchmark) {
		b.Name = canonicalName(b.Name)
		if seen[b.Name] {
			return
		}
		seen[b.Name] = true
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	// partial holds, per test, an output chunk that did not end its line:
	// test2json may cut one result line into "<name>-N\t" and the rest.
	partial := make(map[string]string)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Action != "output" {
				continue
			}
			out := partial[ev.Test] + ev.Output
			if !strings.HasSuffix(out, "\n") {
				partial[ev.Test] = out
				continue
			}
			delete(partial, ev.Test)
			line = strings.TrimSuffix(out, "\n")
			if b, ok := parseBenchLine(line); ok {
				add(b)
				continue
			}
			// Name-less result line: re-attach the name the event carries.
			if ev.Test != "" {
				if b, ok := parseBenchLine(ev.Test + "\t" + line); ok {
					add(b)
				}
			}
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			add(b)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	return doc, nil
}

// canonicalName strips the "#NN" duplicate-run counters the test runner
// inserts after any path segment when a benchmark name repeats, so
// re-measurements of the same configuration collapse onto one key.
func canonicalName(name string) string {
	if !strings.Contains(name, "#") {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name))
	for i := 0; i < len(name); {
		if name[i] == '#' {
			j := i + 1
			for j < len(name) && name[j] >= '0' && name[j] <= '9' {
				j++
			}
			if j > i+1 {
				i = j
				continue
			}
		}
		sb.WriteByte(name[i])
		i++
	}
	return sb.String()
}

// parseBenchLine parses one benchmark result line,
//
//	BenchmarkName-8   <iterations>   <value> <unit>   <value> <unit> ...
//
// returning ok = false for anything else (PASS lines, goos headers, test
// logs).
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iterations, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iterations}
	seenNs := false
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = value
			seenNs = true
		case "B/op":
			v := value
			b.BytesPerOp = &v
		case "allocs/op":
			v := value
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = value
		}
	}
	if !seenNs {
		return Benchmark{}, false
	}
	return b, true
}
