package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"stateslice"
	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
	"stateslice/internal/stream"
)

// perLayer lists the metrics of a traced run that every workload measures,
// as BENCHMARK.json does.
var perLayer = []metricDef{
	{"sliceql.parse_us", "us"},
	{"optimizer.build_us", "us"},
	{"stateslice.new_session_us", "us"},
	{"engine.steps_per_input", "steps/input"},
	{"engine.useful_step_ratio", "ratio"},
	{"operator.union_s", "s"},
	{"operator.union_useful_ratio", "ratio"},
	{"operator.union_cmp_per_input", "cmp/input"},
	{"operator.probe_s", "s"},
	{"operator.probe_cmp_per_input", "cmp/input"},
	{"operator.purge_cmp_per_input", "cmp/input"},
	{"operator.state_tuples_avg", "tuples"},
	{"operator.route_s", "s"},
	{"operator.sink_s", "s"},
	{"bench.handler_s", "s"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.user_cpu_s", "s"},
	{"go.sched_wait_p50_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// Metrics of layers only some workloads run: the sequential engine's feed
// loop, the shard layer, checkpoints and churn's barriers. A traced run
// prints the ones its workload runs on a "layers" line; they are not in
// BENCHMARK.json, where a bypassed layer would report a constant 0.
var (
	sequentialLayer = []metricDef{
		{"engine.feed_s", "s"},
		{"engine.sched_s", "s"},
	}
	shardLayer = []metricDef{
		{"shard.feed_s", "s"},
		{"shard.route_ns_per_input", "ns/input"},
		{"shard.finish_s", "s"},
		{"shard.replica_busy_s_max", "s"},
		{"shard.replica_busy_s_sum", "s"},
		{"shard.unattributed_cpu_s", "s"},
		{"shard.probe_imbalance", "ratio"},
		{"shard.replication_factor", "ratio"},
	}
	churnLayer = []metricDef{
		{"shard.rebalance_moves", "count"},
		{"shard.imbalance_after", "ratio"},
		{"plan.checkpoint_encode_us", "us"},
		{"plan.checkpoint_decode_us", "us"},
		{"plan.checkpoint_bytes", "B"},
		{"plan.checkpoint_state_tuples", "tuples"},
		{"churn.attach_us_p50", "us"},
		{"churn.detach_us_p50", "us"},
		{"churn.checkpoint_us_p50", "us"},
		{"churn.rebalance_us_p50", "us"},
		{"churn.restore_ms", "ms"},
	}
)

// routeLayer is the router comparison count. Every workload measures it,
// but the Mem-Opt chains of all of them have no routers, so it reads 0; it
// is printed on the "layers" line for the same reason as the metrics above.
var routeLayer = []metricDef{{"operator.route_cmp_per_input", "cmp/input"}}

// workloadLayers returns the metrics a traced run of wl prints on the
// "layers" line.
func workloadLayers(wl *workload) []metricDef {
	out := slices.Clone(routeLayer)
	if wl.shards == 0 {
		return append(out, sequentialLayer...)
	}
	out = append(out, shardLayer...)
	if wl.churn {
		out = append(out, churnLayer...)
	}
	return out
}

// Operator layers the decorator attributes Step time to.
const (
	layerRoute = iota // ChainInput, routers, selection gates and filters
	layerProbe        // sliced binary joins: cross-purge, probe, propagate
	layerUnion        // order-preserving per-query unions
	layerSink         // sinks (queueless sinks step as no-ops)
	numLayers
)

func layerOf(op operator.Operator) int {
	switch op.(type) {
	case *operator.SlicedBinaryJoin:
		return layerProbe
	case *operator.Union:
		return layerUnion
	case *operator.Sink:
		return layerSink
	default:
		return layerRoute
	}
}

// replicaAcc aggregates the Step spans of one engine session (one shard
// replica, or the sequential plan). Only that session's goroutine writes
// it; the padding keeps replicas off each other's cache lines.
type replicaAcc struct {
	busy          [numLayers]int64
	steps, useful int64
	unionIn       int64 // items the unions consumed, punctuations included
	unionOut      int64 // result tuples the unions emitted
	probe         uint64
	_             [64]byte
}

// timedOp is the timing decorator at the operator.Operator interface.
type timedOp struct {
	op    operator.Operator
	layer int
	acc   *replicaAcc
	ins   []*stream.Queue // union inputs, to count consumed items
}

func (t *timedOp) Name() string  { return t.op.Name() }
func (t *timedOp) Pending() bool { return t.op.Pending() }

func (t *timedOp) Step(m *operator.CostMeter, max int) int {
	queued := 0
	for _, q := range t.ins {
		queued += q.Len()
	}
	probe := m.Probe
	start := nanotime()
	n := t.op.Step(m, max)
	a := t.acc
	a.busy[t.layer] += nanotime() - start - clockCost
	a.steps++
	consumed := n // items taken from the input, except for unions
	if t.ins != nil {
		// A union returns the tuples it emitted; what it consumed,
		// punctuations included, is what left its inputs.
		for _, q := range t.ins {
			queued -= q.Len()
		}
		consumed = queued
		a.unionIn += int64(queued)
		a.unionOut += int64(n)
	}
	if consumed > 0 {
		a.useful++
	}
	a.probe += m.Probe - probe
	return n
}

// wrapOps (re)installs the decorator on every operator of a chain. Barriers
// that restructure a chain rebuild its Ops, and union inputs change with
// them, so it runs again after each barrier.
func wrapOps(sp *plan.StateSlicePlan, acc *replicaAcc) {
	for i, op := range sp.Plan.Ops {
		if t, ok := op.(*timedOp); ok {
			op = t.op
		}
		t := &timedOp{op: op, layer: layerOf(op), acc: acc}
		if u, ok := op.(*operator.Union); ok {
			t.ins = u.InputSnapshot()
		}
		sp.Plan.Ops[i] = t
	}
}

// sampleEvery is the stride of per-result timing: timing every result
// would double the cost of the dense workload, so one call in sampleEvery
// is timed and the total is scaled up.
const sampleEvery = 16

// sampled estimates the time spent in a per-result callback.
type sampled struct {
	calls, timed, ns int64
	_                [64]byte
}

// begin counts a call and returns its start time when the call is one of
// the timed ones, 0 otherwise.
func (s *sampled) begin() int64 {
	s.calls++
	if s.calls%sampleEvery != 0 {
		return 0
	}
	return nanotime()
}

func (s *sampled) end(start int64) {
	if start != 0 {
		s.ns += nanotime() - start - clockCost
		s.timed++
	}
}

func (s *sampled) estimate() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.ns) * float64(s.calls) / float64(s.timed) / 1e9
}

// clockCost is the duration of an empty timed window, in ns: the part of
// two clock reads that lands inside the window. Every timed window
// subtracts it. It is the least mean over several batches, so that a batch
// slowed by preemption cannot inflate it and drive the sum over many short
// windows (no-op sink Steps) below zero.
var clockCost = func() int64 {
	const batches, n = 16, 1 << 12
	best := int64(math.MaxInt64)
	for b := 0; b < batches; b++ {
		var sum int64
		for i := 0; i < n; i++ {
			start := nanotime()
			sum += nanotime() - start
		}
		best = min(best, sum/n)
	}
	return best
}()

// traceSpan is one timed public call. Every public call is a direct child
// of the traced repetition; the operator Steps below the calls are
// aggregated per layer and replica in replicaAcc instead.
type traceSpan struct {
	name       string
	start, end int64
}

// tracer records the spans of one traced repetition: one per public call,
// and per layer and replica one aggregate of every operator Step.
type tracer struct {
	spans    []traceSpan
	accs     []replicaAcc
	handlers []sampled // per query
	sinks    []sampled // per query; sequential plans only
	wrapped  []bool    // queries whose sink is timed
}

func newTracer(replicas, queries, inputs int) *tracer {
	return &tracer{
		spans:    make([]traceSpan, 0, inputs+256),
		accs:     make([]replicaAcc, max(replicas, 1)),
		handlers: make([]sampled, queries),
		sinks:    make([]sampled, queries),
		wrapped:  make([]bool, queries),
	}
}

// call times fn as a span named name.
func (tr *tracer) call(name string, fn func() error) error {
	start := nanotime()
	err := fn()
	tr.record(name, start)
	return err
}

// record ends a span that began at start. Feed spans use it directly:
// a closure per input would add an allocation to every traced Feed.
func (tr *tracer) record(name string, start int64) {
	tr.spans = append(tr.spans, traceSpan{name: name, start: start, end: nanotime()})
}

// total sums the durations of the spans named name, in seconds.
func (tr *tracer) total(name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// handler wraps the collector's handler with sampled timing.
func (tr *tracer) handler(h func(stateslice.QueryID, *stateslice.Tuple)) func(stateslice.QueryID, *stateslice.Tuple) {
	return func(qi stateslice.QueryID, t *stateslice.Tuple) {
		s := &tr.handlers[qi]
		start := s.begin()
		h(qi, t)
		s.end(start)
	}
}

// timeSinks re-attaches each union-fed query sink behind a sampled timer.
// A query served by a single slice has its sink on the slice's result port,
// shared with other queries' union inputs; its sink time stays in the
// probe layer.
func (tr *tracer) timeSinks(sp *plan.StateSlicePlan) {
	for qi, sink := range sp.Sinks() {
		u := sp.QueryUnion(qi)
		if u == nil {
			continue
		}
		s := &tr.sinks[qi]
		u.Out().DetachAll()
		u.Out().AttachFunc(func(it stream.Item) {
			start := s.begin()
			sink.Accept(it)
			s.end(start)
		})
		tr.wrapped[qi] = true
	}
}

// tracedSeq drives a sequential chain built through plan.BuildStateSlice,
// the constructor Build calls, on an engine session.
type tracedSeq struct {
	tr   *tracer
	sess *engine.Session
}

func newTracedSeq(wl *workload, tr *tracer, h func(stateslice.QueryID, *stateslice.Tuple)) (*tracedSeq, error) {
	w, err := wl.parse()
	if err != nil {
		return nil, err
	}
	sp, err := plan.BuildStateSlice(w, plan.StateSliceConfig{
		Name:     "state-slice(mem-opt)",
		OnResult: func(qi int, t *stream.Tuple) { h(stateslice.QueryID(qi), t) },
	})
	if err != nil {
		return nil, err
	}
	sess, err := engine.NewSession(sp.Plan, engine.Config{})
	if err != nil {
		return nil, err
	}
	tr.timeSinks(sp)
	wrapOps(sp, &tr.accs[0])
	return &tracedSeq{tr: tr, sess: sess}, nil
}

var errNoBarriers = errors.New("the sequential workload runs no barriers")

func (s *tracedSeq) Feed(t *stateslice.Tuple) error {
	start := nanotime()
	err := s.sess.Feed(t)
	s.tr.record("engine.Feed", start)
	return err
}
func (s *tracedSeq) Attach(string) (int, error)      { return 0, errNoBarriers }
func (s *tracedSeq) Detach(int) error                { return errNoBarriers }
func (s *tracedSeq) Checkpoint() (checkpoint, error) { return checkpoint{}, errNoBarriers }
func (s *tracedSeq) Rebalance() (bool, error)        { return false, errNoBarriers }
func (s *tracedSeq) Restore(checkpoint) error        { return errNoBarriers }
func (s *tracedSeq) Close()                          { _ = s.sess.Close(context.Background()) } // abandoned after a failure already recorded

func (s *tracedSeq) Finish() (*stateslice.Result, error) {
	var res *stateslice.Result
	err := s.tr.call("engine.Finish", func() error {
		res = s.sess.Finish()
		return res.Err
	})
	return res, err
}

// tracedShard drives a sharded chain built through shard.New with the
// per-shard build callback the public layer uses, each replica's operators
// wrapped.
type tracedShard struct {
	tr    *tracer
	cfg   shard.Config
	plans []*plan.StateSlicePlan // each replica's current chain
	e     *shard.Executor
	// probeAtMove holds each replica's probe count when a rebalance
	// first moved ownership.
	probeAtMove []uint64
}

func newTracedShard(wl *workload, tr *tracer, h func(stateslice.QueryID, *stateslice.Tuple)) (*tracedShard, error) {
	w, err := wl.parse()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("state-slice(mem-opt,shards=%d)", wl.shards)
	rcfg := plan.StateSliceConfig{Name: name, Migratable: wl.churn}
	probe, err := plan.BuildStateSlice(w, rcfg)
	if err != nil {
		return nil, err
	}
	rcfg.RawSliceResults = plan.RawSliceEligible(w, probe.Ends(), wl.churn)
	ts := &tracedShard{tr: tr, plans: make([]*plan.StateSlicePlan, wl.shards)}
	built := func(i int, sp *plan.StateSlicePlan, err error) (*plan.StateSlicePlan, error) {
		if err != nil {
			return nil, err
		}
		wrapOps(sp, &tr.accs[i])
		ts.plans[i] = sp
		return sp, nil
	}
	ts.cfg = shard.Config{
		Shards:     wl.shards,
		OnResult:   func(qi int, t *stream.Tuple) { h(stateslice.QueryID(qi), t) },
		SliceMerge: rcfg.RawSliceResults,
		Name:       name,
		RestoreFn: func(i int, cp *plan.ChainCheckpoint) (*plan.StateSlicePlan, error) {
			sp, err := plan.RestoreStateSlice(w, rcfg, cp)
			return built(i, sp, err)
		},
	}
	if ts.cfg.SliceMerge {
		for _, q := range w.Queries {
			ts.cfg.Windows = append(ts.cfg.Windows, q.Window)
		}
	}
	if wl.keyMax > 0 {
		ts.cfg.Band = &shard.Band{Width: 1, MinKey: 0, MaxKey: wl.keyMax}
	}
	err = tr.call("shard.New", func() (err error) {
		ts.e, err = shard.New(ts.cfg, func(i int) (*plan.StateSlicePlan, error) {
			sp, err := plan.BuildStateSlice(w, rcfg)
			return built(i, sp, err)
		})
		return err
	})
	return ts, err
}

// rewrap re-installs the decorators after an admission barrier, which
// rebuilt the chains' Ops; every replica acknowledged the barrier and stays
// idle until the next feed slab reaches it.
func (s *tracedShard) rewrap() {
	for i, sp := range s.plans {
		wrapOps(sp, &s.tr.accs[i])
	}
}

func (s *tracedShard) Feed(t *stateslice.Tuple) error {
	start := nanotime()
	err := s.e.Feed(t)
	s.tr.record("shard.Feed", start)
	return err
}

func (s *tracedShard) Attach(ql string) (int, error) {
	var id int
	err := s.tr.call("shard.Attach", func() error {
		q, err := stateslice.ParseQuery(ql)
		if err != nil {
			return err
		}
		id, _, err = s.e.Attach(q)
		return err
	})
	if err == nil {
		s.rewrap()
	}
	return id, err
}

func (s *tracedShard) Detach(id int) error {
	err := s.tr.call("shard.Detach", func() error {
		_, err := s.e.Detach(id)
		return err
	})
	if err == nil {
		s.rewrap()
	}
	return err
}

func (s *tracedShard) Checkpoint() (checkpoint, error) {
	var (
		cp   *shard.Checkpoint
		blob []byte
		out  checkpoint
	)
	err := s.tr.call("shard.Checkpoint", func() (err error) {
		cp, err = s.e.Checkpoint()
		return err
	})
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	if err := s.tr.call("shard.Checkpoint.Encode", func() (err error) {
		blob, err = cp.Encode()
		return err
	}); err != nil {
		return out, err
	}
	t1 := time.Now()
	err = s.tr.call("shard.DecodeCheckpoint", func() (err error) {
		cp, err = shard.DecodeCheckpoint(blob)
		return err
	})
	if err != nil {
		return out, err
	}
	return checkpoint{v: cp, bytes: len(blob), tuples: cp.StateTuples(), encode: t1.Sub(t0), decode: time.Since(t1)}, nil
}

func (s *tracedShard) Rebalance() (bool, error) {
	var moved bool
	err := s.tr.call("shard.Rebalance", func() (err error) {
		moved, err = s.e.Rebalance()
		return err
	})
	// A move rebuilds every chain through RestoreFn, which wraps it; the
	// rebuild barrier has completed, so the counters are quiescent.
	if moved && s.probeAtMove == nil {
		for i := range s.tr.accs {
			s.probeAtMove = append(s.probeAtMove, s.tr.accs[i].probe)
		}
	}
	return moved, err
}

func (s *tracedShard) Restore(cp checkpoint) error {
	cfg := s.cfg
	cfg.Restore = cp.v.(*shard.Checkpoint)
	return s.tr.call("shard.New(restore)", func() (err error) {
		s.e, err = shard.New(cfg, func(int) (*plan.StateSlicePlan, error) {
			return nil, errors.New("restore builds from the checkpoint")
		})
		return err
	})
}

func (s *tracedShard) Finish() (*stateslice.Result, error) {
	var res *stateslice.Result
	err := s.tr.call("shard.Finish", func() (err error) {
		res, err = s.e.Finish()
		return err
	})
	return res, err
}

func (s *tracedShard) Close() { _ = s.e.Close(context.Background()) } // abandoned after a failure already recorded

// tracedRun makes one traced repetition and reduces it to the per-layer
// metrics. It checks that the traced repetition reproduces the untraced
// digests and deterministic comparison counts exactly, which shows the
// wrapped plan is the same program.
func tracedRun(wl *workload, in []*stateslice.Tuple, sched *schedule, ref *reference, reps []*rep, setups []setupTimes) (map[string]float64, *rep, error) {
	tr := newTracer(wl.shards, len(sched.windows), len(in))
	c := newCollector(len(in), ref.Groups)
	h := tr.handler(c.handle)
	var (
		tg  target
		err error
	)
	if wl.shards == 0 {
		tg, err = newTracedSeq(wl, tr, h)
	} else {
		tg, err = newTracedShard(wl, tr, h)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	r := drive(wl, in, sched, ref, tg, c, newHeapSampler())
	guard(wl, r, reps[0])
	out := layerMetrics(wl, in, tr, tg, r)
	out["bench.trace_overhead_pct"] = (endToEndMetrics(reps, setups)["service_rate_tps"]/repMetrics(r)["service_rate_tps"] - 1) * 100
	printLayerTable(wl, out, r)
	var parse, build, sess []float64
	for _, s := range setups {
		parse = append(parse, float64(s.parse.Nanoseconds())/1e3)
		build = append(build, float64(s.build.Nanoseconds())/1e3)
		sess = append(sess, float64(s.session.Nanoseconds())/1e3)
	}
	out["sliceql.parse_us"] = median(parse)
	out["optimizer.build_us"] = median(build)
	out["stateslice.new_session_us"] = median(sess)
	// Barrier latencies come from the untraced repetitions.
	var bar [len(eventNames)][]float64
	var restore []float64
	for _, r := range reps {
		for k := range r.barriers {
			bar[k] = append(bar[k], r.barriers[k]...)
		}
		if r.restore > 0 {
			restore = append(restore, float64(r.restore.Nanoseconds())/1e6)
		}
	}
	out["churn.attach_us_p50"] = median(bar[evAttach])
	out["churn.detach_us_p50"] = median(bar[evDetach])
	out["churn.checkpoint_us_p50"] = median(bar[evCheckpoint])
	out["churn.rebalance_us_p50"] = median(bar[evRebalance])
	out["churn.restore_ms"] = median(restore)
	return out, r, nil
}

// guard fails the traced repetition unless it reproduces the untraced
// digests and comparison counts. The merge layer's union comparisons of a
// sharded run depend on how replica output interleaves in time, so they are
// compared only for the sequential engine.
func guard(wl *workload, traced, untraced *rep) {
	traced.attempted++
	if !slices.Equal(traced.digests, untraced.digests) {
		traced.fail("traced digests differ from the untraced run")
	}
	a, b := traced.totals.Meter, untraced.totals.Meter
	if wl.shards > 0 {
		a.Union, b.Union = 0, 0
	}
	a.Invocations, b.Invocations = 0, 0
	traced.attempted++
	if a != b {
		traced.fail("traced comparisons %v differ from the untraced run %v", a.String(), b.String())
	}
}

// layerMetrics reduces one traced repetition to the per-layer metrics.
func layerMetrics(wl *workload, in []*stateslice.Tuple, tr *tracer, tg target, r *rep) map[string]float64 {
	n := float64(r.inputs)
	var busy [numLayers]float64
	var steps, useful, unionIn, unionOut int64
	var replicaBusy []float64
	for i := range tr.accs {
		a := &tr.accs[i]
		total := 0.0
		for l, ns := range a.busy {
			busy[l] += float64(ns) / 1e9
			total += float64(ns) / 1e9
		}
		replicaBusy = append(replicaBusy, total)
		steps += a.steps
		useful += a.useful
		unionIn += a.unionIn
		unionOut += a.unionOut
	}
	var handler, handlerInSinks, sinks float64
	for qi := range tr.handlers {
		h := tr.handlers[qi].estimate()
		handler += h
		if tr.wrapped[qi] {
			handlerInSinks += h
			sinks += tr.sinks[qi].estimate()
		}
	}
	allBusy := busy[layerRoute] + busy[layerProbe] + busy[layerUnion] + busy[layerSink]
	meter := r.totals.Meter
	gcCPU := r.rt1.gcCPU - r.rt0.gcCPU
	userCPU := r.rt1.userCPU - r.rt0.userCPU
	m := map[string]float64{
		"engine.steps_per_input":       float64(steps) / n,
		"engine.useful_step_ratio":     ratio(float64(useful), float64(steps)),
		"operator.union_s":             busy[layerUnion] - sinks,
		"operator.union_useful_ratio":  ratio(float64(unionOut), float64(unionIn)),
		"operator.union_cmp_per_input": float64(meter.Union) / n,
		"operator.probe_s":             busy[layerProbe],
		"operator.probe_cmp_per_input": float64(meter.Probe) / n,
		"operator.purge_cmp_per_input": float64(meter.Purge) / n,
		"operator.state_tuples_avg":    r.stateAvg,
		"operator.route_s":             busy[layerRoute],
		"operator.route_cmp_per_input": float64(meter.Route) / n,
		"operator.sink_s":              busy[layerSink] + sinks - handlerInSinks,
		"bench.handler_s":              handler,
		"go.gc_cpu_s":                  gcCPU,
		"go.gc_cycles":                 float64(r.rt1.gcCycles - r.rt0.gcCycles),
		"go.user_cpu_s":                userCPU,
		"go.sched_wait_p50_us":         schedWaitP50(r.rt0, r.rt1) * 1e6,
	}
	if wl.shards == 0 {
		feed, finish := tr.total("engine.Feed"), tr.total("engine.Finish")
		m["engine.feed_s"] = feed
		// Each decorated Step also spends about clockCost outside its
		// timed window; that is tracing cost, not scheduling.
		m["engine.sched_s"] = feed + finish - allBusy - float64(steps*clockCost)/1e9
		return m
	}
	ts := tg.(*tracedShard)
	feed := tr.total("shard.Feed")
	m["shard.feed_s"] = feed
	m["shard.finish_s"] = tr.total("shard.Finish")
	m["shard.route_ns_per_input"] = routeNanos(ts.cfg, in)
	m["shard.replica_busy_s_max"] = slices.Max(replicaBusy)
	m["shard.replica_busy_s_sum"] = allBusy
	m["shard.unattributed_cpu_s"] = userCPU - allBusy - feed - handler - gcCPU
	m["shard.probe_imbalance"] = imbalance(r.totals.ReplicaComparisons)
	m["shard.replication_factor"] = float64(ts.e.ReplicatedFeeds()) / n
	m["shard.rebalance_moves"] = float64(r.moves)
	if ts.probeAtMove != nil {
		var after []uint64
		for i := range tr.accs {
			after = append(after, tr.accs[i].probe-ts.probeAtMove[i])
		}
		m["shard.imbalance_after"] = imbalance(after)
	}
	var enc, dec, size, tuples []float64
	for _, cp := range r.ckpts {
		enc = append(enc, float64(cp.encode.Nanoseconds())/1e3)
		dec = append(dec, float64(cp.decode.Nanoseconds())/1e3)
		size = append(size, float64(cp.bytes))
		tuples = append(tuples, float64(cp.tuples))
	}
	m["plan.checkpoint_encode_us"] = median(enc)
	m["plan.checkpoint_decode_us"] = median(dec)
	m["plan.checkpoint_bytes"] = median(size)
	m["plan.checkpoint_state_tuples"] = median(tuples)
	return m
}

// routeNanos times the shard layer's exported partitioner over the run's
// input keys, the routing decision Feed makes for every input.
func routeNanos(cfg shard.Config, in []*stateslice.Tuple) float64 {
	var sum int
	start := nanotime()
	if cfg.Band != nil {
		rp, err := shard.NewRangePartitioner(cfg.Shards, *cfg.Band)
		if err != nil {
			return 0
		}
		for _, t := range in {
			lo, hi := rp.Replicas(t.Key)
			sum += lo + hi
		}
	} else {
		p := shard.NewPartitioner(cfg.Shards)
		for _, t := range in {
			sum += p.Shard(t.Key)
		}
	}
	elapsed := nanotime() - start
	routeSink = sum
	return float64(elapsed) / float64(len(in))
}

// routeSink keeps the timed partitioner calls from being optimized away.
var routeSink int

// imbalance is the max/mean ratio of per-replica counts.
func imbalance(counts []uint64) float64 {
	var mx, sum uint64
	for _, c := range counts {
		sum += c
		mx = max(mx, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(counts)) / float64(sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayerTable prints where the CPU time of a traced repetition went:
// busy time per layer, self time (busy minus the layers it calls into) and
// self time as a share of the process's user CPU.
func printLayerTable(wl *workload, m map[string]float64, r *rep) {
	user := m["go.user_cpu_s"]
	type row struct {
		name       string
		busy, self float64
	}
	rows := []row{
		{"route", m["operator.route_s"], m["operator.route_s"]},
		{"probe+purge", m["operator.probe_s"], m["operator.probe_s"]},
		{"union", m["operator.union_s"] + m["operator.sink_s"] + m["bench.handler_s"], m["operator.union_s"]},
		{"sink", m["operator.sink_s"], m["operator.sink_s"]},
		{"bench handler", m["bench.handler_s"], m["bench.handler_s"]},
		{"gc", m["go.gc_cpu_s"], m["go.gc_cpu_s"]},
	}
	if wl.shards == 0 {
		rows = append(rows, row{"engine feed", m["engine.feed_s"], m["engine.sched_s"]})
	}
	fmt.Printf("layer table (traced rep, user CPU %.3fs, wall %.3fs):\n", user, r.wall.Seconds())
	fmt.Printf("  %-14s %10s %10s %8s\n", "layer", "busy_s", "self_s", "cpu%")
	for _, row := range rows {
		fmt.Printf("  %-14s %10.4f %10.4f %7.1f%%\n", row.name, row.busy, row.self, 100*ratio(row.self, user))
	}
}
