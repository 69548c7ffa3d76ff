// Command perfbench is byzopt's benchmark. It runs fixed sweep grids — the
// paper's product — through the public sweep, dgd, cluster and p2p APIs and
// a loopback TCP fleet, checks every output, and prints end-to-end metrics
// (untraced) or a per-layer split (traced). See README.md in this directory.
//
//	perfbench -workload paper-grid -seed 1 -seconds 10 -trace 0
//	perfbench -workload all -seconds 5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"byzopt/internal/sweep"
)

// setupProbes is how many fresh processes measure set-up per run; setup_s
// is their median.
const setupProbes = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool // minimal rounds, for the smoke test
	tmp     string
	probes  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: paper-grid, wide-filter, learning, substrates, or all")
	seed := fs.Int64("seed", 1, "workload seed (Spec.Seed of every grid)")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer split from a traced run")
	tmpRoot := fs.String("tmp", ".bench_build", "directory for checkpoints and other run files")
	probe := fs.Bool("setup-probe", false, "measure one cold set-up in this process and print it (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, probes: setupProbes}
	var selected []workload
	if *name == "all" && !*probe {
		selected = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	opts.tmp = tmp
	ctx := context.Background()

	if *probe {
		pr, err := setupProbe(ctx, selected[0], opts)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(pr); err != nil {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d go=%s pool_workers=%d fleet_workers=%dx1 setup_probes=%d seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), poolWorkers, fleetWorkers, opts.probes, opts.seed, opts.seconds, *traceFlag)
	var reports []report
	for _, w := range selected {
		rep, err := bench(ctx, w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		reports = append(reports, rep)
	}
	var out any
	if len(reports) == 1 {
		out = reports[0].result()
	} else {
		all := make(map[string]any, len(reports))
		for _, rep := range reports {
			all[rep.workload] = rep.result()
		}
		out = all
	}
	doc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	return 0
}

// --- set-up ---

// probeResult is one cold set-up: grid expansion, Problem.Build of every
// distinct workload instance, and on substrates the fleet's listen, dial and
// handshake up to its first landed cell.
type probeResult struct {
	ExpandNS int64 `json:"expand_ns"`
	BuildNS  int64 `json:"build_ns"`
	FleetNS  int64 `json:"fleet_ns"`
}

func (p probeResult) total() time.Duration { return time.Duration(p.ExpandNS + p.BuildNS + p.FleetNS) }

func setupProbe(ctx context.Context, w workload, opts options) (probeResult, error) {
	var pr probeResult
	spec := w.spec(opts.seed, w.rounds)
	start := time.Now()
	scns, err := sweep.Scenarios(spec)
	if err != nil {
		return pr, err
	}
	pr.ExpandNS = int64(time.Since(start))
	prob, err := sweep.LookupProblem(spec.Problem)
	if err != nil {
		return pr, err
	}
	start = time.Now()
	built := make(map[string]bool)
	for _, scn := range scns {
		key := prob.Key(&spec, scn)
		if built[key] {
			continue
		}
		built[key] = true
		if _, err := prob.Build(&spec, scn); err != nil {
			return pr, fmt.Errorf("build %s: %w", key, err)
		}
	}
	pr.BuildNS = int64(time.Since(start))
	if w.substrates {
		_, fs, err := runFleet(ctx, spec, filepath.Join(opts.tmp, "probe.jsonl"), false, true)
		if err != nil {
			return pr, err
		}
		pr.FleetNS = int64(fs.handshake)
	}
	return pr, nil
}

// probeSchedule runs the set-up probe in fresh processes, spread evenly over
// a measured span: before each pass, every probe whose slot has come runs.
// setup_s then samples the shared host over the whole run, not one instant
// of it; probes run between passes, outside every pass timer.
type probeSchedule struct {
	ctx   context.Context
	w     workload
	opts  options
	start time.Time
	span  time.Duration
	runs  []probeResult
}

// due runs the probes whose slots have come.
func (s *probeSchedule) due() error {
	for len(s.runs) < s.opts.probes &&
		time.Since(s.start) >= s.span*time.Duration(len(s.runs))/time.Duration(s.opts.probes) {
		if err := s.probe(); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the probes a run that ended early left over.
func (s *probeSchedule) finish() error {
	for len(s.runs) < s.opts.probes {
		if err := s.probe(); err != nil {
			return err
		}
	}
	return nil
}

func (s *probeSchedule) probe() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(s.ctx, exe, "-setup-probe", "-workload", s.w.name,
		"-seed", strconv.FormatInt(s.opts.seed, 10), "-tmp", s.opts.tmp)
	cmd.Stderr = os.Stderr
	doc, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	var pr probeResult
	if err := json.Unmarshal(doc, &pr); err != nil {
		return fmt.Errorf("setup probe output: %w", err)
	}
	s.runs = append(s.runs, pr)
	return nil
}

// --- one workload ---

type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	workload  string
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s %s\n", r.workload, n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %v %s\n", r.workload, m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.workload, p)
	}
}

func (r *report) result() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// bench runs one workload: measured passes — untraced, with the set-up
// probes spread between them, and in traced mode a second, traced half. Each pass is checked as soon as
// it ends, then only its numbers are kept. Every pass must export the same
// bytes as the first (on substrates, as an untimed in-process run).
func bench(ctx context.Context, w workload, opts options) (report, error) {
	rep := report{workload: w.name, correct: true}
	var err error
	rounds := w.rounds
	if opts.smoke {
		rounds = w.smokeRounds
	}
	r := &runner{w: w, seed: opts.seed, rounds: rounds, tmp: opts.tmp}
	var ref []byte
	if w.substrates {
		if ref, err = r.reference(ctx); err != nil {
			return rep, err
		}
	}
	check := func(p *pass) {
		if ref == nil {
			ref = p.sweeps[0].export
		}
		if err := checkPass(w, *p, ref); err != nil {
			rep.fail(err)
		}
		rep.attempted += p.cells
		rep.failed += p.failed
		p.sweeps = nil
	}

	untracedSeconds, minPasses := opts.seconds, w.minPasses
	if opts.trace {
		untracedSeconds /= 2
		minPasses = 1
	}
	probes := &probeSchedule{ctx: ctx, w: w, opts: opts, start: time.Now(),
		span: time.Duration(untracedSeconds * float64(time.Second))}
	before := readRuntime()
	untraced, err := measure(ctx, r, untracedSeconds, minPasses, probes.due, check)
	if err != nil {
		return rep, err
	}
	rt := readRuntime().since(before)
	if err := probes.finish(); err != nil {
		return rep, err
	}
	if !opts.trace {
		endToEnd(&rep, w, probes.runs, untraced)
		return rep, nil
	}
	tr := newTracer()
	sums := newLayerSums()
	r.tr = tr
	traced, err := measure(ctx, r, opts.seconds-untracedSeconds, 1, nil, func(p *pass) {
		sums.addPass(p)
		check(p)
	})
	r.tr = nil
	if err != nil {
		return rep, err
	}
	sums.report(&rep, probes.runs, untraced, traced, rt, tr)
	return rep, nil
}

func (r *report) fail(err error) {
	r.correct = false
	r.problems = append(r.problems, err.Error())
}

// measure runs whole passes until the measured time is spent and at least
// minPasses passes are done, calling between (if not nil) before each pass
// and handing each pass to done as it ends.
func measure(ctx context.Context, r *runner, seconds float64, minPasses int, between func() error, done func(*pass)) ([]pass, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var passes []pass
	for len(passes) < minPasses || time.Now().Before(deadline) {
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := r.pass(ctx)
		if err != nil {
			return nil, err
		}
		if p.peakRSS, err = peakRSSMB(); err != nil {
			return nil, err
		}
		done(&p)
		passes = append(passes, p)
	}
	return passes, nil
}

// --- end-to-end metrics ---

func endToEnd(rep *report, w workload, probes []probeResult, passes []pass) {
	var wall time.Duration
	cells := 0
	var rates, rss []float64
	var perCell [][]float64 // each grid cell's times over the passes
	for _, p := range passes {
		wall += p.wall
		cells += p.cells
		rates = append(rates, float64(p.cells)/p.wall.Seconds())
		rss = append(rss, p.peakRSS)
		for i, ms := range p.cellMS {
			if i == len(perCell) {
				perCell = append(perCell, nil)
			}
			perCell[i] = append(perCell[i], ms)
		}
	}
	typical := make([]float64, len(perCell))
	for i, v := range perCell {
		typical[i] = median(v)
	}
	pct := tailPercentile(w.cells * w.minPasses)
	tails, samples := groupTails(passes, w.minPasses, pct/100)
	setups := make([]float64, len(probes))
	for i, pr := range probes {
		setups[i] = pr.total().Seconds()
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("passes=%d cells=%d wall_s=%.3f", len(passes), cells, wall.Seconds()),
		fmt.Sprintf("cell_ms samples=%d tail_percentile=%g tail_groups=%d", samples, pct, len(tails)),
		fmt.Sprintf("cell_fail_ratio %v ratio", ratio(float64(rep.failed), float64(rep.attempted))))
	rep.add("cells_per_s", median(rates), "1/s")
	rep.add("cell_ms_p50", median(typical), "ms")
	rep.add("cell_ms_tail", median(tails), "ms")
	rep.add("setup_s", median(setups), "s")
	rep.add("rss_peak_mb", median(rss), "MB")
}

// groupTails splits the passes, in order, into groups of size passes each
// (the last group takes any remainder) and returns each group's pooled cell
// times at quantile q, with the total sample count. The median over groups
// is the tail a run reports: a burst of host noise moves one group's tail,
// not the median.
func groupTails(passes []pass, size int, q float64) (tails []float64, samples int) {
	groups := len(passes) / size
	if groups == 0 {
		groups = 1
	}
	for g := 0; g < groups; g++ {
		end := (g + 1) * size
		if g == groups-1 {
			end = len(passes)
		}
		var pooled []float64
		for _, p := range passes[g*size : end] {
			pooled = append(pooled, p.cellMS...)
		}
		samples += len(pooled)
		sort.Float64s(pooled)
		tails = append(tails, quantile(pooled, q))
	}
	return tails, samples
}

// median sorts v in place and returns its median.
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// tailPercentile returns the highest percentile of a fixed ladder with at
// least ten of minSamples beyond it. It is chosen from the guaranteed
// sample count, not the run's, so every run of a workload reports the same
// percentile.
func tailPercentile(minSamples int) float64 {
	for _, p := range []float64{99.9, 99, 90, 75} {
		if float64(minSamples)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// quantile interpolates linearly between order statistics of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS asks Linux to restart the process's peak-RSS mark at the
// current RSS, so the next read is the peak of what runs in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("rss_peak_mb needs a resettable peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB returns the peak resident memory since the last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// --- runtime counters (untraced half of a traced run) ---

// runtimeStats are the Go runtime's counters. busyCPU is the CPU time the
// runtime's Ps spent busy: total minus idle.
type runtimeStats struct {
	alloc          uint64
	gcCPU, busyCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeStats{
		alloc:   s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		busyCPU: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (s runtimeStats) since(b runtimeStats) runtimeStats {
	return runtimeStats{alloc: s.alloc - b.alloc, gcCPU: s.gcCPU - b.gcCPU, busyCPU: s.busyCPU - b.busyCPU}
}
