package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
	"byzopt/internal/sweep"
)

// The traced run records one span per layer boundary by timing calls into
// each layer's public faces from outside the program: the wrappers below
// sit between the sweep engine, the dgd.Backend it drives, and the agents,
// filter, loss and observers that backend calls. They forward exactly the
// faces their inner value has, so the engine takes the same code paths
// (Into faces, Faulty collection order, round keying, async/chaos observer
// channels) with tracing on as off.

var epoch = time.Now()

// now is the monotonic span clock, in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// kind names a span's layer.
type kind int

const (
	kRun      kind = iota // Backend.Run outside its rounds: per-run set-up and teardown
	kRound                // one round: collector, overlay, step, projection, transport, agreement
	kOracle               // an honest gradient oracle call (costfunc, matrix, mlsim)
	kByz                  // a Byzantine behavior call; its oracle call is a child
	kFilter               // one gradient-filter aggregation
	kLoss                 // honest-loss tracking (dgd.RecordRound)
	kObserver             // the sweep's round recorders
	numKinds
)

// acc accumulates one layer's spans. Agent spans may land from transport
// goroutines, hence the atomics.
type acc struct {
	span, self, n atomic.Int64
}

type frame struct {
	k     kind
	start int64
	child int64
}

// stack nests the spans of one goroutine's call chain. A span's self time
// is its duration minus the time its children cover.
type stack struct {
	frames []frame
}

func (s *stack) push(k kind) {
	s.frames = append(s.frames, frame{k: k, start: now()})
}

// popAt closes the innermost span at time t and returns its duration.
func (s *stack) popAt(ct *cellTrace, t int64) int64 {
	top := len(s.frames) - 1
	f := s.frames[top]
	s.frames = s.frames[:top]
	dur := t - f.start
	a := &ct.acc[f.k]
	a.span.Add(dur)
	a.self.Add(dur - f.child)
	a.n.Add(1)
	if top > 0 {
		parent := &s.frames[top-1]
		parent.child += dur
		if parent.k == kRound && (f.k == kFilter || f.k == kLoss || f.k == kObserver) {
			ct.roundFilterObserve += dur
		}
	}
	return dur
}

func (s *stack) pop(ct *cellTrace) { s.popAt(ct, now()) }

func (s *stack) topKind() (kind, bool) {
	if len(s.frames) == 0 {
		return 0, false
	}
	return s.frames[len(s.frames)-1].k, true
}

// cellTrace is one grid cell's trace: the cell span (first agent
// construction to the sweep's progress report), the Backend.Run span and
// every layer span inside it.
type cellTrace struct {
	acc [numKinds]acc

	// main is the stack of the goroutine running the cell; agents holds one
	// stack per agent for backends that call agents from their own
	// goroutines (remote), where agent spans are concurrent with the round
	// and not its children.
	main   stack
	agents []stack
	remote bool

	substrate          string
	filter             string
	overlay            bool // the cell runs the async/chaos overlay
	n, f               int
	rounds             int // configured rounds T
	records            int // dgd.RecordRound calls seen so far
	roundDurs          []int64
	runNS              int64
	cellStart          int64
	cellEnd            int64
	hasRun             bool
	roundFilterObserve int64 // filter and observe time inside rounds
}

func (ct *cellTrace) stackFor(agent int) *stack {
	if ct.remote {
		return &ct.agents[agent]
	}
	return &ct.main
}

// recordStart marks the start of a dgd.RecordRound call: the record of
// estimate x_t opens round t and closes round t-1; the final record (t = T)
// only closes.
func (ct *cellTrace) recordStart() {
	t := now()
	if k, ok := ct.main.topKind(); ok && k == kRound {
		ct.roundDurs = append(ct.roundDurs, ct.main.popAt(ct, t))
	}
	if ct.records < ct.rounds {
		ct.main.frames = append(ct.main.frames, frame{k: kRound, start: t})
	}
	ct.records++
}

// tracer owns the traces of every cell of the traced passes.
type tracer struct {
	mu    sync.Mutex
	open  map[uint64]*cellTrace // cells in flight, by goroutine
	cells []*cellTrace

	metricNS, metricN atomic.Int64 // task-metric evaluations (inside observer spans)
}

func newTracer() *tracer {
	return &tracer{open: make(map[uint64]*cellTrace)}
}

// openCell starts a cell span on the calling goroutine (the sweep worker
// that runs the cell).
func (tr *tracer) openCell(n int) *cellTrace {
	ct := &cellTrace{agents: make([]stack, n), cellStart: now()}
	id := goid()
	tr.mu.Lock()
	tr.open[id] = ct
	tr.cells = append(tr.cells, ct)
	tr.mu.Unlock()
	return ct
}

// closeCell ends the cell span of the calling goroutine; the sweep calls
// its Progress callback on the worker goroutine once a cell's result is
// assembled.
func (tr *tracer) closeCell() {
	t := now()
	id := goid()
	tr.mu.Lock()
	if ct, ok := tr.open[id]; ok {
		ct.cellEnd = t
		delete(tr.open, id)
	}
	tr.mu.Unlock()
}

// takeCells returns and forgets the traced cells.
func (tr *tracer) takeCells() []*cellTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	cells := tr.cells
	tr.cells = nil
	return cells
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). The traced run pairs a cell's start with the
// sweep's progress report through it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// --- Problem wrapper ---

// tracedProblem is passed as Spec.ProblemDef: it wraps the honest agents
// (the gradient oracles) before the engine makes any of them Byzantine, and
// times the task metric.
type tracedProblem struct {
	sweep.Problem
	tr *tracer
}

// tracedDeclarer forwards the BehaviorDeclarer face of problems that have it.
type tracedDeclarer struct {
	*tracedProblem
	declarer sweep.BehaviorDeclarer
}

func (p tracedDeclarer) ExtraBehaviors() []string { return p.declarer.ExtraBehaviors() }

func wrapProblem(p sweep.Problem, tr *tracer) sweep.Problem {
	tp := &tracedProblem{Problem: p, tr: tr}
	if d, ok := p.(sweep.BehaviorDeclarer); ok {
		return tracedDeclarer{tracedProblem: tp, declarer: d}
	}
	return tp
}

func (p *tracedProblem) Build(spec *sweep.Spec, scn sweep.Scenario) (*sweep.Workload, error) {
	wl, err := p.Problem.Build(spec, scn)
	if err != nil || wl == nil {
		return wl, err
	}
	out := *wl
	newAgents := wl.NewAgents
	out.NewAgents = func() ([]dgd.Agent, error) {
		agents, err := newAgents()
		if err != nil {
			return nil, err
		}
		ct := p.tr.openCell(len(agents))
		for i, a := range agents {
			if agents[i], err = wrapOracle(a, ct, i); err != nil {
				return nil, err
			}
		}
		return agents, nil
	}
	if wl.Metric != nil {
		m := *wl.Metric
		eval := m.Eval
		m.Eval = func(x []float64) (float64, error) {
			t := now()
			v, err := eval(x)
			p.tr.metricNS.Add(now() - t)
			p.tr.metricN.Add(1)
			return v, err
		}
		out.Metric = &m
	}
	return &out, nil
}

// --- agent wrappers ---

type behaviorer interface {
	Behavior() byzantine.Behavior
}

type distorterCarrier interface {
	BroadcastDistorter() p2p.Distorter
}

// oracleAgent times an honest agent's gradient oracle.
type oracleAgent struct {
	inner dgd.Agent
	ct    *cellTrace
	i     int
}

func (a *oracleAgent) Gradient(round int, x []float64) ([]float64, error) {
	s := a.ct.stackFor(a.i)
	s.push(kOracle)
	g, err := a.inner.Gradient(round, x)
	s.pop(a.ct)
	return g, err
}

type oracleIntoAgent struct {
	oracleAgent
	into dgd.IntoAgent
}

func (a *oracleIntoAgent) GradientInto(dst []float64, round int, x []float64) error {
	s := a.ct.stackFor(a.i)
	s.push(kOracle)
	err := a.into.GradientInto(dst, round, x)
	s.pop(a.ct)
	return err
}

// wrapOracle wraps an agent as the problem built it. Problems hand out
// honest agents; one that is already Byzantine (or carries a broadcast
// distorter) has faces this wrapper does not forward, so it is refused
// rather than silently changing the engine's collection order.
func wrapOracle(a dgd.Agent, ct *cellTrace, i int) (dgd.Agent, error) {
	_, faulty := a.(dgd.Faulty)
	_, beh := a.(behaviorer)
	_, dist := a.(distorterCarrier)
	if faulty || beh || dist {
		return nil, fmt.Errorf("trace: agent %d of type %T has Byzantine faces the oracle wrapper does not forward", i, a)
	}
	base := oracleAgent{inner: a, ct: ct, i: i}
	if into, ok := a.(dgd.IntoAgent); ok {
		return &oracleIntoAgent{oracleAgent: base, into: into}, nil
	}
	return &base, nil
}

// byzInner is the face set of the engine's Byzantine wrapper (dgd.NewFaulty).
type byzInner interface {
	dgd.IntoFaulty
	dgd.IntoAgent
	behaviorer
}

// byzAgent times a Byzantine agent; the honest oracle call the behavior
// distorts is a child span.
type byzAgent struct {
	inner byzInner
	ct    *cellTrace
	i     int
}

func wrapByzantine(a dgd.Agent, ct *cellTrace, i int) (dgd.Agent, error) {
	inner, ok := a.(byzInner)
	if _, dist := a.(distorterCarrier); !ok || dist {
		return nil, fmt.Errorf("trace: Byzantine agent %d of type %T has faces the wrapper does not forward", i, a)
	}
	return &byzAgent{inner: inner, ct: ct, i: i}, nil
}

func (a *byzAgent) Gradient(round int, x []float64) ([]float64, error) {
	s := a.ct.stackFor(a.i)
	s.push(kByz)
	g, err := a.inner.Gradient(round, x)
	s.pop(a.ct)
	return g, err
}

func (a *byzAgent) GradientInto(dst []float64, round int, x []float64) error {
	s := a.ct.stackFor(a.i)
	s.push(kByz)
	err := a.inner.GradientInto(dst, round, x)
	s.pop(a.ct)
	return err
}

func (a *byzAgent) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	s := a.ct.stackFor(a.i)
	s.push(kByz)
	g, err := a.inner.FaultyGradient(round, agent, x, honest)
	s.pop(a.ct)
	return g, err
}

func (a *byzAgent) FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error {
	s := a.ct.stackFor(a.i)
	s.push(kByz)
	err := a.inner.FaultyGradientInto(dst, round, agent, x, honest)
	s.pop(a.ct)
	return err
}

func (a *byzAgent) Behavior() byzantine.Behavior { return a.inner.Behavior() }

// --- filter wrappers ---

type tracedFilter struct {
	inner aggregate.Filter
	ct    *cellTrace
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

func (f *tracedFilter) Aggregate(grads [][]float64, fv int) ([]float64, error) {
	f.ct.main.push(kFilter)
	out, err := f.inner.Aggregate(grads, fv)
	f.ct.main.pop(f.ct)
	return out, err
}

type tracedIntoFilter struct {
	*tracedFilter
	into aggregate.IntoFilter
}

func (f tracedIntoFilter) AggregateInto(dst []float64, grads [][]float64, fv int, s *aggregate.Scratch) error {
	f.ct.main.push(kFilter)
	err := f.into.AggregateInto(dst, grads, fv, s)
	f.ct.main.pop(f.ct)
	return err
}

type tracedKeyedFilter struct {
	*tracedFilter
	keyed aggregate.RoundKeyed
}

func (f tracedKeyedFilter) SetRound(t int) { f.keyed.SetRound(t) }

type tracedIntoKeyedFilter struct {
	tracedIntoFilter
	keyed aggregate.RoundKeyed
}

func (f tracedIntoKeyedFilter) SetRound(t int) { f.keyed.SetRound(t) }

func wrapFilter(fl aggregate.Filter, ct *cellTrace) aggregate.Filter {
	base := &tracedFilter{inner: fl, ct: ct}
	into, hasInto := fl.(aggregate.IntoFilter)
	keyed, hasKeyed := fl.(aggregate.RoundKeyed)
	switch {
	case hasInto && hasKeyed:
		return tracedIntoKeyedFilter{tracedIntoFilter: tracedIntoFilter{base, into}, keyed: keyed}
	case hasInto:
		return tracedIntoFilter{base, into}
	case hasKeyed:
		return tracedKeyedFilter{base, keyed}
	default:
		return base
	}
}

// --- loss and observer wrappers ---

// tracedLoss times the honest-loss evaluation of dgd.RecordRound. When
// hook is set it is the first call of each record and marks the round
// boundary.
type tracedLoss struct {
	inner costfunc.Function
	ct    *cellTrace
	hook  bool
}

func (l *tracedLoss) Dim() int { return l.inner.Dim() }

func (l *tracedLoss) Eval(x []float64) (float64, error) {
	if l.hook {
		l.ct.recordStart()
	}
	l.ct.main.push(kLoss)
	v, err := l.inner.Eval(x)
	l.ct.main.pop(l.ct)
	return v, err
}

type tracedObserver struct {
	inner dgd.RoundObserver
	ct    *cellTrace
	hook  bool
}

func (o *tracedObserver) ObserveRound(t int, x []float64, loss, dist float64) error {
	if o.hook {
		o.ct.recordStart()
	}
	o.ct.main.push(kObserver)
	err := o.inner.ObserveRound(t, x, loss, dist)
	o.ct.main.pop(o.ct)
	return err
}

type asyncFace struct {
	ct    *cellTrace
	inner dgd.AsyncObserver
}

func (o asyncFace) ObserveAsyncRound(s dgd.AsyncRoundStats) error {
	o.ct.main.push(kObserver)
	err := o.inner.ObserveAsyncRound(s)
	o.ct.main.pop(o.ct)
	return err
}

type chaosFace struct {
	ct    *cellTrace
	inner dgd.ChaosObserver
}

func (o chaosFace) ObserveChaosRound(s dgd.ChaosRoundStats) error {
	o.ct.main.push(kObserver)
	err := o.inner.ObserveChaosRound(s)
	o.ct.main.pop(o.ct)
	return err
}

func wrapObserver(obs dgd.RoundObserver, ct *cellTrace, hook bool) dgd.RoundObserver {
	base := &tracedObserver{inner: obs, ct: ct, hook: hook}
	ao, hasAsync := obs.(dgd.AsyncObserver)
	co, hasChaos := obs.(dgd.ChaosObserver)
	switch {
	case hasAsync && hasChaos:
		return struct {
			*tracedObserver
			asyncFace
			chaosFace
		}{base, asyncFace{ct, ao}, chaosFace{ct, co}}
	case hasAsync:
		return struct {
			*tracedObserver
			asyncFace
		}{base, asyncFace{ct, ao}}
	case hasChaos:
		return struct {
			*tracedObserver
			chaosFace
		}{base, chaosFace{ct, co}}
	default:
		return base
	}
}

// --- backend wrappers ---

// tracedBackend wraps a substrate's dgd.Backend: it binds the run to the
// cell trace its oracle agents opened, wraps the Byzantine agents, the
// filter, the loss and the observer, and spans Backend.Run itself.
type tracedBackend struct {
	inner     dgd.Backend
	substrate string
	// remote marks substrates that call agents from their own goroutines
	// (the cluster transport), whose agent spans overlap the round instead
	// of nesting in it.
	remote bool
}

func (b *tracedBackend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	var ct *cellTrace
	for _, a := range cfg.Agents {
		switch o := a.(type) {
		case *oracleAgent:
			ct = o.ct
		case *oracleIntoAgent:
			ct = o.ct
		}
		if ct != nil {
			break
		}
	}
	if ct == nil {
		return nil, fmt.Errorf("trace: run has no traced agents; pass the traced problem as Spec.ProblemDef")
	}
	ct.remote = b.remote
	ct.substrate = b.substrate
	ct.filter = cfg.Filter.Name()
	ct.overlay = cfg.Async != nil || cfg.Chaos.Enabled()
	ct.n, ct.f, ct.rounds = len(cfg.Agents), cfg.F, cfg.Rounds
	ct.hasRun = true

	wrapped := cfg
	wrapped.Agents = make([]dgd.Agent, len(cfg.Agents))
	for i, a := range cfg.Agents {
		if _, faulty := a.(dgd.Faulty); !faulty {
			wrapped.Agents[i] = a
			continue
		}
		w, err := wrapByzantine(a, ct, i)
		if err != nil {
			return nil, err
		}
		wrapped.Agents[i] = w
	}
	wrapped.Filter = wrapFilter(cfg.Filter, ct)
	if cfg.TrackLoss != nil {
		wrapped.TrackLoss = &tracedLoss{inner: cfg.TrackLoss, ct: ct, hook: true}
	}
	if cfg.Observer != nil {
		wrapped.Observer = wrapObserver(cfg.Observer, ct, cfg.TrackLoss == nil)
	}

	ct.main.push(kRun)
	res, err := b.inner.Run(ctx, wrapped)
	t := now()
	// A failed run can leave its last round (and the spans of the call that
	// failed) open; close them at the run's end.
	for len(ct.main.frames) > 1 {
		k, _ := ct.main.topKind()
		if d := ct.main.popAt(ct, t); k == kRound {
			ct.roundDurs = append(ct.roundDurs, d)
		}
	}
	ct.runNS = ct.main.popAt(ct, t)
	return res, err
}
