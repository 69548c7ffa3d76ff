package main

import (
	"fmt"
	"time"

	"byzopt/internal/p2p"
)

// span sums one layer's spans.
type span struct{ span, self, n int64 }

// substrateSums are the rounds of one substrate's cells.
type substrateSums struct {
	run, wait, rounds int64
	roundDurs         []float64
}

// layerSums folds the traced cells of every traced pass, pass by pass.
type layerSums struct {
	run, rounds        int64   // summed Backend.Run as the tracer spans it, rounds started
	sweepRunMS         float64 // summed Backend.Run as the sweep times it (Result.WallMS)
	cellSpan, cellSelf int64
	spanCells          int64
	inline, remote     [numKinds]span // remote: agent spans on transport goroutines
	roundDurs          []float64
	perFilter          map[string]*span
	subs               map[string]*substrateSums
	overlaySelf        int64 // round self time of async/chaos cells
	overlayRounds      int64
	syncSelf           int64 // round self time of the other cells
	syncRounds         int64
	treeNodes, bcasts  int64
	poolWall           time.Duration
	fleet              []*fleetStats
}

func newLayerSums() *layerSums {
	return &layerSums{perFilter: map[string]*span{}, subs: map[string]*substrateSums{}}
}

// addPass folds one traced pass. It reads the pass's results, so it runs
// before the pass's checks drop them.
func (s *layerSums) addPass(p *pass) {
	s.poolWall += p.poolWall
	for _, sw := range p.sweeps {
		if sw.substrate == "fleet" { // fleet workers run their own, untraced backend
			continue
		}
		for i := range sw.results {
			s.sweepRunMS += sw.results[i].WallMS
		}
	}
	if p.fleet != nil {
		s.fleet = append(s.fleet, p.fleet)
	}
	for _, ct := range p.traced {
		if ct.hasRun {
			s.addCell(ct)
		}
	}
	p.traced = nil
}

func (s *layerSums) addCell(ct *cellTrace) {
	s.run += ct.runNS
	if ct.cellEnd > 0 {
		s.cellSpan += ct.cellEnd - ct.cellStart
		s.cellSelf += ct.cellEnd - ct.cellStart - ct.runNS
		s.spanCells++
	}
	nr := int64(len(ct.roundDurs))
	s.rounds += nr
	sub := s.subs[ct.substrate]
	if sub == nil {
		sub = &substrateSums{}
		s.subs[ct.substrate] = sub
	}
	sub.run += ct.runNS
	sub.rounds += nr
	sub.wait -= ct.roundFilterObserve
	for _, d := range ct.roundDurs {
		s.roundDurs = append(s.roundDurs, float64(d))
		sub.roundDurs = append(sub.roundDurs, float64(d))
		sub.wait += d
	}
	for k := kind(0); k < numKinds; k++ {
		a := &ct.acc[k]
		dst := &s.inline[k]
		if ct.remote && (k == kOracle || k == kByz) {
			dst = &s.remote[k]
		}
		dst.span += a.span.Load()
		dst.self += a.self.Load()
		dst.n += a.n.Load()
	}
	pf := s.perFilter[ct.filter]
	if pf == nil {
		pf = &span{}
		s.perFilter[ct.filter] = pf
	}
	pf.self += ct.acc[kFilter].self.Load()
	pf.n += ct.acc[kFilter].n.Load()
	if ct.overlay {
		s.overlaySelf += ct.acc[kRound].self.Load()
		s.overlayRounds += nr
	} else {
		s.syncSelf += ct.acc[kRound].self.Load()
		s.syncRounds += nr
	}
	if ct.substrate == "p2p" {
		if cost, err := p2p.MessageCost(ct.n, ct.f); err == nil {
			b := int64(ct.n) * nr // every peer broadcasts once per round
			s.treeNodes += cost * b
			s.bcasts += b
		}
	}
}

// report adds the per-layer split. Every metric is reported on every
// workload; a layer the workload does not exercise reads 0.
func (s *layerSums) report(rep *report, probes []probeResult, untraced, traced []pass, rt runtimeStats, tr *tracer) {
	// The layer self times are checked against the sweep's own timer around
	// Backend.Run, a clock independent of the tracer's spans.
	var inside int64
	for k := kind(0); k < numKinds; k++ {
		inside += s.inline[k].self
	}
	sweepRun := int64(s.sweepRunMS * 1e6)
	gap := sweepRun - inside
	us := func(ns float64) float64 { return ns / 1e3 }
	per := func(a, b int64) float64 { return ratio(float64(a), float64(b)) }

	var expand, build []float64
	for _, pr := range probes {
		expand = append(expand, float64(pr.ExpandNS)/1e6)
		build = append(build, float64(pr.BuildNS)/1e6)
	}
	var untracedWall, tracedWall time.Duration
	var untracedRounds, tracedCells int
	for _, p := range untraced {
		untracedWall += p.wall
		untracedRounds += p.rounds
	}
	for _, p := range traced {
		tracedWall += p.wall
		tracedCells += p.cells
	}
	overhead := ratio(tracedWall.Seconds()/float64(len(traced)), untracedWall.Seconds()/float64(len(untraced)))

	rep.notes = append(rep.notes,
		fmt.Sprintf("traced passes=%d cells=%d untraced passes=%d", len(traced), tracedCells, len(untraced)),
		fmt.Sprintf("trace accounting: summed Backend.Run %.3f ms (sweep timer), summed layer self time %.3f ms, gap %.3f ms",
			s.sweepRunMS, float64(inside)/1e6, float64(gap)/1e6),
		"exact counts (unit count): oracle.calls_per_round filter.calls_per_round p2p.tree_nodes_per_broadcast")

	oracle := s.inline[kOracle].self + s.remote[kOracle].self
	oracleN := s.inline[kOracle].n + s.remote[kOracle].n
	byz := s.inline[kByz].self + s.remote[kByz].self
	byzN := s.inline[kByz].n + s.remote[kByz].n
	filter := s.inline[kFilter]

	rep.add("sweep.expand_ms", median(expand), "ms")
	rep.add("sweep.build_ms", median(build), "ms")
	rep.add("sweep.cell_self_us", us(per(s.cellSelf, s.spanCells)), "us")
	rep.add("sweep.pool_busy_share", ratio(float64(s.cellSpan), float64(poolWorkers)*float64(s.poolWall)), "share")
	rep.add("dgd.round_us_p50", us(median(s.roundDurs)), "us")
	rep.add("dgd.round_self_us", us(per(s.inline[kRound].self, s.rounds)), "us")
	overlay := 0.0
	if s.overlayRounds > 0 && s.syncRounds > 0 {
		overlay = us(per(s.overlaySelf, s.overlayRounds) - per(s.syncSelf, s.syncRounds))
	}
	rep.add("dgd.overlay_us_per_round", overlay, "us")
	rep.add("oracle.us_per_call", us(per(oracle, oracleN)), "us")
	rep.add("oracle.calls_per_round", per(oracleN, s.rounds), "count")
	rep.add("oracle.share", per(oracle, s.run), "share")
	rep.add("byzantine.us_per_call", us(per(byz, byzN)), "us")
	rep.add("byzantine.share", per(byz, s.run), "share")
	rep.add("filter.us_per_call", us(per(filter.self, filter.n)), "us")
	rep.add("filter.share", per(filter.self, s.run), "share")
	rep.add("filter.calls_per_round", per(filter.n, s.rounds), "count")
	for _, name := range wideFilters {
		v := 0.0
		if pf := s.perFilter[name]; pf != nil {
			v = us(per(pf.self, pf.n))
		}
		rep.add("filter."+name+".us_per_call", v, "us")
	}
	rep.add("observe.loss_us_per_round", us(per(s.inline[kLoss].self, s.rounds)), "us")
	rep.add("observe.metric_us_per_eval", us(per(tr.metricNS.Load(), tr.metricN.Load())), "us")
	rep.add("observe.share", per(s.inline[kLoss].self+s.inline[kObserver].self, s.run), "share")

	cluster, p2pSums := s.subs["cluster"], s.subs["p2p"]
	if cluster == nil {
		cluster = &substrateSums{}
	}
	if p2pSums == nil {
		p2pSums = &substrateSums{}
	}
	rep.add("cluster.round_us_p50", us(median(cluster.roundDurs)), "us")
	rep.add("cluster.wait_us_per_round", us(per(cluster.wait, cluster.rounds)), "us")
	rep.add("cluster.wait_share", per(cluster.wait, cluster.run), "share")
	rep.add("p2p.round_us_p50", us(median(p2pSums.roundDurs)), "us")
	rep.add("p2p.agree_us_per_round", us(per(p2pSums.wait, p2pSums.rounds)), "us")
	rep.add("p2p.tree_nodes_per_broadcast", per(s.treeNodes, s.bcasts), "count")

	var handshakes, drains, gaps []float64
	var fleetBytes, fleetWrites int64
	fleetCells := 0
	for _, f := range s.fleet {
		handshakes = append(handshakes, float64(f.handshake)/1e6)
		drains = append(drains, float64(f.drain)/1e6)
		for _, g := range f.gaps {
			gaps = append(gaps, float64(g)/1e6)
		}
		fleetBytes += f.bytes
		fleetWrites += f.writes
		fleetCells += f.cells
	}
	rep.add("fleet.handshake_ms", median(handshakes), "ms")
	rep.add("fleet.drain_ms", median(drains), "ms")
	rep.add("fleet.cell_gap_ms_p50", median(gaps), "ms")
	rep.add("fleet.bytes_per_cell", per(fleetBytes, int64(fleetCells)), "B/cell")
	rep.add("fleet.writes_per_cell", per(fleetWrites, int64(fleetCells)), "writes/cell")
	rep.add("runtime.alloc_bytes_per_round", ratio(float64(rt.alloc), float64(untracedRounds)), "B/round")
	rep.add("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.busyCPU), "share")
	rep.add("trace.overhead_ratio", overhead, "ratio")
	rep.add("trace.gap_share", per(gap, sweepRun), "share")
}
