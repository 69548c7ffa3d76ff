package main

import (
	"strings"
	"testing"
)

const rawSample = `goos: linux
goarch: amd64
pkg: byzopt
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCollectGradients/n=10/d=10/workers=1-8         	      12	  95812345 ns/op	    1024 B/op	      17 allocs/op
BenchmarkP2PSweep/workers=1-8                           	       1	  34031337 ns/op	19072496 B/op	  660840 allocs/op
BenchmarkAblationFilters/cge-8                          	       5	   2000000 ns/op	         0.0123 final_dist	     512 B/op	       9 allocs/op
PASS
ok  	byzopt	1.234s
`

func TestConvertRawBenchOutput(t *testing.T) {
	doc, err := Convert(strings.NewReader(rawSample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != Schema {
		t.Errorf("schema %q", doc.Schema)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkCollectGradients/n=10/d=10/workers=1-8" ||
		first.Iterations != 12 || first.NsPerOp != 95812345 {
		t.Errorf("first benchmark mis-parsed: %+v", first)
	}
	if first.BytesPerOp == nil || *first.BytesPerOp != 1024 ||
		first.AllocsPerOp == nil || *first.AllocsPerOp != 17 {
		t.Errorf("benchmem metrics mis-parsed: %+v", first)
	}
	ablation := doc.Benchmarks[2]
	if ablation.Metrics["final_dist"] != 0.0123 {
		t.Errorf("custom metric lost: %+v", ablation)
	}
}

func TestConvertTest2JSONStream(t *testing.T) {
	stream := `{"Action":"start","Package":"byzopt"}
{"Action":"output","Package":"byzopt","Output":"goos: linux\n"}
{"Action":"output","Package":"byzopt","Output":"BenchmarkForEachSubset/n=22/k=11/workers=1-8         \t       1\t   9880549 ns/op\t     176 B/op\t       3 allocs/op\n"}
{"Action":"output","Package":"byzopt","Output":"PASS\n"}
{"Action":"pass","Package":"byzopt"}
`
	doc, err := Convert(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkForEachSubset/n=22/k=11/workers=1-8" || b.NsPerOp != 9880549 {
		t.Errorf("mis-parsed: %+v", b)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 3 {
		t.Errorf("allocs lost: %+v", b)
	}
}

// TestConvertTest2JSONSplitNameResult covers the stream shape the test
// runner actually emits for all but the first sub-benchmark of a run: the
// name arrives in one output event (and in every event's Test field) while
// the result line arrives bare. Dropping these silently truncated the PR4
// trajectory; the Test field re-attaches them.
func TestConvertTest2JSONSplitNameResult(t *testing.T) {
	stream := `{"Action":"run","Package":"byzopt","Test":"BenchmarkRoundLoop/n=10/path=into"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkRoundLoop/n=10/path=into","Output":"BenchmarkRoundLoop/n=10/path=into                \t       1\t     37871 ns/op\t    3168 B/op\t      28 allocs/op\n"}
{"Action":"run","Package":"byzopt","Test":"BenchmarkRoundLoop/n=10/path=alloc"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkRoundLoop/n=10/path=alloc","Output":"BenchmarkRoundLoop/n=10/path=alloc \n"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkRoundLoop/n=10/path=alloc","Output":"       1\t     37307 ns/op\t   12176 B/op\t     135 allocs/op\n"}
{"Action":"output","Package":"byzopt","Output":"PASS\n"}
`
	doc, err := Convert(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	if doc.Benchmarks[0].Name != "BenchmarkRoundLoop/n=10/path=into" {
		t.Errorf("first name mis-parsed: %+v", doc.Benchmarks[0])
	}
	b := doc.Benchmarks[1]
	if b.Name != "BenchmarkRoundLoop/n=10/path=alloc" || b.NsPerOp != 37307 {
		t.Errorf("split result mis-parsed: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 12176 || b.AllocsPerOp == nil || *b.AllocsPerOp != 135 {
		t.Errorf("split result lost -benchmem metrics: %+v", b)
	}
}

// TestConvertTest2JSONPartialLine covers a result line test2json cuts in
// two output events: the suffixed name with its padding, then the metrics.
// The pieces must be joined, so the row keeps the name the runner printed.
func TestConvertTest2JSONPartialLine(t *testing.T) {
	stream := `{"Action":"run","Package":"byzopt","Test":"BenchmarkBehaviorApply/random/d=50"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkBehaviorApply/random/d=50","Output":"BenchmarkBehaviorApply/random/d=50\n"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkBehaviorApply/random/d=50","Output":"BenchmarkBehaviorApply/random/d=50-2        \t"}
{"Action":"output","Package":"byzopt","Test":"BenchmarkBehaviorApply/random/d=50","Output":"       1\t      1598 ns/op\t     432 B/op\t       2 allocs/op\n"}
{"Action":"output","Package":"byzopt","Output":"PASS\n"}
`
	doc, err := Convert(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkBehaviorApply/random/d=50-2" || b.NsPerOp != 1598 {
		t.Errorf("partial line mis-parsed: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 432 || b.AllocsPerOp == nil || *b.AllocsPerOp != 2 {
		t.Errorf("partial line lost -benchmem metrics: %+v", b)
	}
}

// TestConvertDeduplicatesRepeatedNames covers the single-core-runner shape
// that produced duplicate trajectory rows: a workers axis of
// {1, GOMAXPROCS} collapses to {1, 1} when GOMAXPROCS is 1, and the test
// runner emits the second run as "…/workers=1#01". The converter must keep
// one row per canonical configuration, first measurement winning.
func TestConvertDeduplicatesRepeatedNames(t *testing.T) {
	raw := `BenchmarkKrumScores/n=50/d=1000/workers=1-1     	       1	  11111111 ns/op	     100 B/op	       2 allocs/op
BenchmarkKrumScores/n=50/d=1000/workers=1#01-1  	       1	  22222222 ns/op	     200 B/op	       4 allocs/op
BenchmarkKrumScores/n=50/d=1000/workers=8-1     	       1	  33333333 ns/op	     300 B/op	       6 allocs/op
`
	doc, err := Convert(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 (duplicate dropped): %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkKrumScores/n=50/d=1000/workers=1-1" || first.NsPerOp != 11111111 {
		t.Errorf("first measurement must win: %+v", first)
	}
	if doc.Benchmarks[1].Name != "BenchmarkKrumScores/n=50/d=1000/workers=8-1" {
		t.Errorf("distinct configuration lost: %+v", doc.Benchmarks[1])
	}
}

func TestCanonicalName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX/workers=1-8":        "BenchmarkX/workers=1-8",
		"BenchmarkX/workers=1#01-8":     "BenchmarkX/workers=1-8",
		"BenchmarkX/a#12/b=2#03-16":     "BenchmarkX/a/b=2-16",
		"BenchmarkX/note=#hash-8":       "BenchmarkX/note=#hash-8", // '#' not followed by digits survives
		"BenchmarkKrumScores/n=50#01-1": "BenchmarkKrumScores/n=50-1",
	} {
		if got := canonicalName(in); got != want {
			t.Errorf("canonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConvertRejectsEmptyInput(t *testing.T) {
	if _, err := Convert(strings.NewReader("PASS\nok byzopt 0.1s\n")); err == nil {
		t.Error("want an error for input without benchmark results")
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"--- BENCH: BenchmarkFoo",
		"BenchmarkBroken notanumber 12 ns/op",
		"Benchmark 1", // too few fields
		"BenchmarkNoNs-8 	 5 	 12 widgets/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted noise line %q", line)
		}
	}
}
