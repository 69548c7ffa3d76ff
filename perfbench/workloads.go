package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
	"byzopt/internal/sweep"
)

const (
	// poolWorkers is the closed pool every sweep is submitted to, sized to
	// the 2-CPU machines the benchmark is tuned on.
	poolWorkers = 2
	// fleetWorkers is the loopback fleet's worker count; each runs one cell
	// at a time.
	fleetWorkers = 2
	// paperEpsilon is ε of the paper instance (Table 1): the (f, ε)-
	// resilience bound every f = 1 CGE and CWTM cell must meet.
	paperEpsilon = 0.0890
)

// workload is one fixed grid. spec builds it from the workload seed; the
// program receives nothing else.
type workload struct {
	name string
	// cells is the size the grid must expand to (per substrate on
	// substrates).
	cells int
	// rounds is the full-size round count; smokeRounds the minimal size the
	// smoke test runs.
	rounds, smokeRounds int
	// minPasses is the fewest passes a measured run makes, whatever
	// -seconds says. It fixes the cell-time sample count the tail
	// percentile is chosen from, so every run reports the same percentile.
	minPasses  int
	spec       func(seed int64, rounds int) sweep.Spec
	substrates bool
}

var paperFilters = []string{"mean", "cge", "cge-avg", "cwtm", "cwmedian", "krum", "geomedian", "centeredclip"}

// wideFilters are the filters the wide-filter workload times one by one.
var wideFilters = []string{"cwtm", "cwmedian", "krum", "multikrum-10", "geomedian", "bulyan", "sdmmfd", "centeredclip"}

// workloads are the benchmark's grids; README.md records why each was
// chosen and which layers it stresses.
var workloads = []workload{
	{
		name:   "paper-grid",
		cells:  64,
		rounds: 500, smokeRounds: 500,
		minPasses: 16,
		spec: func(seed int64, rounds int) sweep.Spec {
			return baseSpec(sweep.ProblemPaper, seed, rounds, sweep.Spec{
				Filters:   paperFilters,
				Behaviors: []string{"gradient-reverse", "random", "ipm", "alie"},
				FValues:   []int{1, 2},
			})
		},
	},
	{
		name:   "wide-filter",
		cells:  32,
		rounds: 50, smokeRounds: 3,
		minPasses: 2,
		spec: func(seed int64, rounds int) sweep.Spec {
			return baseSpec(sweep.ProblemSynthetic, seed, rounds, sweep.Spec{
				Filters:   wideFilters,
				Behaviors: []string{"alie", "gradient-reverse"},
				FValues:   []int{10, 20},
				NValues:   []int{100},
				Dims:      []int{50},
			})
		},
	},
	{
		name:   "learning",
		cells:  9,
		rounds: 200, smokeRounds: 5,
		minPasses: 5,
		spec: func(seed int64, rounds int) sweep.Spec {
			return baseSpec(sweep.ProblemLearning, seed, rounds, sweep.Spec{
				Filters:      []string{"cge", "cwtm", "mean"},
				Behaviors:    []string{sweep.BehaviorLabelFlip, "gradient-reverse", "random"},
				FValues:      []int{3},
				NValues:      []int{10},
				Dims:         []int{20},
				Steps:        []dgd.StepSchedule{dgd.Constant{Eta: 0.01}}, // the Appendix-K step
				TraceMetrics: []string{"test_accuracy"},
			})
		},
	},
	{
		name:   "substrates",
		cells:  24,
		rounds: 200, smokeRounds: 10,
		minPasses: 5,
		spec: func(seed int64, rounds int) sweep.Spec {
			return baseSpec(sweep.ProblemPaper, seed, rounds, sweep.Spec{
				Filters:   []string{"cge", "cwtm", "krum"},
				Behaviors: []string{"gradient-reverse", "random"},
				FValues:   []int{1},
				Asyncs: []sweep.AsyncSpec{{}, {
					Latency: "uniform", Base: 0.5, Spread: 1,
					StragglerRate: 0.2, StragglerFactor: 4,
					Policy: dgd.CollectFirstK, K: 5, Stale: dgd.StaleReuse,
				}},
				Chaoses: []sweep.ChaosSpec{{}, {OmitRate: 0.1, Attempts: 2, RetryDelay: 0.1}},
			})
		},
		substrates: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// baseSpec fills every axis the sweep would default, so Problem.Build can be
// called on the spec directly (the set-up probe does).
func baseSpec(problem string, seed int64, rounds int, s sweep.Spec) sweep.Spec {
	s.Problem = problem
	s.Seed = seed
	s.Rounds = rounds
	s.Workers = poolWorkers
	s.Baselines = []bool{false}
	s.SketchDims = []int{0}
	s.Noise = 0.05
	s.BoxRadius = 1000
	if s.NValues == nil {
		s.NValues = []int{6}
	}
	if s.Dims == nil {
		s.Dims = []int{2}
	}
	if s.Steps == nil {
		s.Steps = []dgd.StepSchedule{dgd.Diminishing{C: 1.5, P: 1}}
	}
	if s.Asyncs == nil {
		s.Asyncs = []sweep.AsyncSpec{{}}
	}
	if s.Chaoses == nil {
		s.Chaoses = []sweep.ChaosSpec{{}}
	}
	return s
}

// sweepRun is one sweep of a pass on one substrate.
type sweepRun struct {
	substrate string
	results   []sweep.Result
	export    []byte
}

// pass is one execution of a workload's whole grid: one in-process sweep,
// or on substrates a cluster sweep, a p2p sweep and a fleet sweep.
type pass struct {
	wall     time.Duration // the whole pass
	peakRSS  float64       // peak resident memory during the pass, MB
	poolWall time.Duration // the sweeps run on the in-process pool
	// cellMS is each grid cell's Backend.Run time, as the sweep records it
	// around the call (Result.WallMS); on substrates a cell's cluster and
	// p2p runs are summed, and the fleet phase is not timed per cell.
	cellMS []float64
	sweeps []sweepRun
	fleet  *fleetStats
	traced []*cellTrace
	cells  int
	failed int
	rounds int
}

// runner executes passes of one workload at one seed.
type runner struct {
	w      workload
	seed   int64
	rounds int
	tmp    string
	tr     *tracer // nil for untraced passes
}

func (r *runner) spec() sweep.Spec { return r.w.spec(r.seed, r.rounds) }

// backend returns the Backend for one substrate sweep, wrapped for tracing
// in traced passes.
func (r *runner) backend(substrate string) dgd.Backend {
	var inner dgd.Backend
	remote := false
	switch substrate {
	case "cluster":
		inner, remote = &cluster.Backend{}, true
	case "p2p":
		inner = p2p.Backend{}
	default:
		inner = dgd.InProcess{}
	}
	if r.tr != nil {
		return &tracedBackend{inner: inner, substrate: substrate, remote: remote}
	}
	return inner
}

// sweepOn runs the grid once on an in-process pool over the substrate.
func (r *runner) sweepOn(ctx context.Context, substrate string, p *pass) error {
	spec := r.spec()
	spec.Backend = r.backend(substrate)
	if r.tr != nil {
		prob, err := sweep.LookupProblem(spec.Problem)
		if err != nil {
			return err
		}
		spec.ProblemDef = wrapProblem(prob, r.tr)
		spec.Progress = func(done, total int) { r.tr.closeCell() }
	}
	start := time.Now()
	results, err := sweep.RunContext(ctx, spec)
	p.poolWall += time.Since(start)
	if err != nil {
		return fmt.Errorf("%s sweep on %s: %w", r.w.name, substrate, err)
	}
	return p.add(substrate, results)
}

// add records one sweep's results in the pass.
func (p *pass) add(substrate string, results []sweep.Result) error {
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, results, false); err != nil {
		return fmt.Errorf("export %s: %w", substrate, err)
	}
	p.sweeps = append(p.sweeps, sweepRun{substrate: substrate, results: results, export: buf.Bytes()})
	for i := range results {
		switch results[i].Status() {
		case "error", "timeout":
			p.failed++
		case "skipped":
		default:
			p.rounds += results[i].Rounds
		}
	}
	p.cells += len(results)
	return nil
}

// pass runs the workload's grid once.
func (r *runner) pass(ctx context.Context) (pass, error) {
	var p pass
	start := time.Now()
	if !r.w.substrates {
		if err := r.sweepOn(ctx, "inprocess", &p); err != nil {
			return p, err
		}
		for _, res := range p.sweeps[0].results {
			p.cellMS = append(p.cellMS, res.WallMS)
		}
	} else {
		for _, sub := range []string{"cluster", "p2p"} {
			if err := r.sweepOn(ctx, sub, &p); err != nil {
				return p, err
			}
		}
		cl, pp := p.sweeps[0].results, p.sweeps[1].results
		for i := range cl {
			if i < len(pp) {
				p.cellMS = append(p.cellMS, cl[i].WallMS+pp[i].WallMS)
			}
		}
		ckpt := filepath.Join(r.tmp, "fleet.jsonl") // removed again by runFleet
		results, fs, err := runFleet(ctx, r.spec(), ckpt, r.tr != nil, false)
		if err != nil {
			return p, err
		}
		p.fleet = &fs
		if err := p.add("fleet", results); err != nil {
			return p, err
		}
	}
	p.wall = time.Since(start)
	if r.tr != nil {
		p.traced = r.tr.takeCells()
	}
	return p, nil
}

// reference runs the grid in-process, untimed, for the substrates export
// check.
func (r *runner) reference(ctx context.Context) ([]byte, error) {
	var p pass
	saved := r.tr
	r.tr = nil
	defer func() { r.tr = saved }()
	if err := r.sweepOn(ctx, "inprocess", &p); err != nil {
		return nil, err
	}
	return p.sweeps[0].export, nil
}

// --- fleet ---

// fleetStats is what the fleet phase of a pass measured from outside the
// program: the coordinator's progress callback and a counting listener.
type fleetStats struct {
	wall      time.Duration
	handshake time.Duration // listen to the first landed cell
	drain     time.Duration // last landed cell to Coordinate returning
	gaps      []time.Duration
	cells     int
	bytes     int64
	writes    int64
}

// countingListener counts the bytes and write calls of every connection the
// coordinator accepts.
type countingListener struct {
	net.Listener
	bytes, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.bytes.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}

// runFleet runs the grid over a loopback TCP fleet in this process: a
// coordinator checkpointing to ckpt and fleetWorkers workers. With
// firstOnly it stops at the first landed cell (the set-up probe).
func runFleet(ctx context.Context, spec sweep.Spec, ckpt string, count, firstOnly bool) ([]sweep.Result, fleetStats, error) {
	var fs fleetStats
	defer func() {
		_ = os.Remove(ckpt)
		_ = os.Remove(sweep.SnapshotPath(ckpt))
	}()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fs, fmt.Errorf("fleet listen: %w", err)
	}
	var ln net.Listener = raw
	var counter *countingListener
	if count {
		counter = &countingListener{Listener: raw}
		ln = counter
	}
	var landed []time.Time
	cs := sweep.CoordinatorSpec{
		Spec:           spec,
		CheckpointPath: ckpt,
		Progress: func(done, total int) {
			landed = append(landed, time.Now())
			if firstOnly {
				cancel()
			}
		},
	}
	addr := raw.Addr().String()
	var wg sync.WaitGroup
	werrs := make([]error, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = sweep.Work(ctx, addr, sweep.WorkerOptions{Name: fmt.Sprintf("bench-%d", i), Workers: 1})
		}(i)
	}
	results, err := sweep.Coordinate(ctx, ln, cs)
	end := time.Now()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if len(landed) > 0 {
		fs.handshake = landed[0].Sub(start)
	}
	if firstOnly {
		if len(landed) == 0 {
			return nil, fs, fmt.Errorf("fleet: no cell landed: %v", err)
		}
		return nil, fs, nil
	}
	if err != nil {
		return nil, fs, fmt.Errorf("fleet: %w", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fs, fmt.Errorf("fleet worker %d: %w", i, werr)
		}
	}
	fs.wall = end.Sub(start)
	fs.cells = len(landed)
	if fs.cells > 0 {
		fs.drain = end.Sub(landed[len(landed)-1])
	}
	for i := 1; i < len(landed); i++ {
		fs.gaps = append(fs.gaps, landed[i].Sub(landed[i-1]))
	}
	if counter != nil {
		fs.bytes, fs.writes = counter.bytes.Load(), counter.writes.Load()
	}
	return results, fs, nil
}

// --- output checks ---

var errCheck = errors.New("output check failed")

// checkPass verifies one pass: every sweep expanded to the expected grid,
// every export byte-matches the reference, and on paper-grid every f = 1
// CGE/CWTM cell meets ε.
func checkPass(w workload, p pass, ref []byte) error {
	for _, s := range p.sweeps {
		if err := checkCells(w, s); err != nil {
			return err
		}
		if err := checkExport(w.name+" "+s.substrate, s.export, ref); err != nil {
			return err
		}
		if w.name == "paper-grid" {
			if err := checkResilience(s.results); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkCells(w workload, s sweepRun) error {
	if len(s.results) != w.cells {
		return fmt.Errorf("%s on %s: %d cells, want %d: %w", w.name, s.substrate, len(s.results), w.cells, errCheck)
	}
	for i := range s.results {
		if s.results[i].GridTotal != w.cells {
			return fmt.Errorf("%s on %s: cell %d reports a grid of %d, want %d: %w",
				w.name, s.substrate, i, s.results[i].GridTotal, w.cells, errCheck)
		}
	}
	return nil
}

func checkExport(label string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	return fmt.Errorf("%s: export differs from the reference at byte %d (%d vs %d bytes): %w",
		label, at, len(got), len(want), errCheck)
}

// checkResilience turns (f, ε)-resilience into a check: on the paper
// instance every f = 1 CGE and CWTM cell must end within ε of x_H.
func checkResilience(results []sweep.Result) error {
	checked := 0
	for i := range results {
		r := &results[i]
		if r.F != 1 || (r.Filter != "cge" && r.Filter != "cwtm") {
			continue
		}
		if st := r.Status(); st != "ok" {
			return fmt.Errorf("paper-grid %s/%s f=1: status %s (%s): %w", r.Filter, r.Behavior, st, r.Err, errCheck)
		}
		if !(r.FinalDist <= paperEpsilon) {
			return fmt.Errorf("paper-grid %s/%s f=1: final_dist %g exceeds ε = %g: %w",
				r.Filter, r.Behavior, r.FinalDist, paperEpsilon, errCheck)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("paper-grid: no f=1 cge/cwtm cell to check: %w", errCheck)
	}
	return nil
}
