package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"stateslice"
)

// checkpoint is a snapshot taken at a churn barrier, already serialized and
// decoded again, ready to restore.
type checkpoint struct {
	v              any
	bytes, tuples  int
	encode, decode time.Duration
}

// target is a session the benchmark drives: the public API for measured
// runs, the internal constructors with timing decorators for traced runs.
// Both execute the same plan.
type target interface {
	Feed(t *stateslice.Tuple) error
	Attach(ql string) (int, error)
	Detach(id int) error
	Checkpoint() (checkpoint, error)
	Rebalance() (bool, error)
	// Restore replaces the finished session with a fresh one built from
	// the checkpoint.
	Restore(cp checkpoint) error
	Finish() (*stateslice.Result, error)
	// Close releases a session that is not finished.
	Close()
}

// publicTarget drives the library through its public API only.
type publicTarget struct {
	w    stateslice.Workload
	opts []stateslice.Option
	sess stateslice.Session
}

// setupTimes splits one setup into its public calls.
type setupTimes struct {
	parse, build, session time.Duration
}

func (s setupTimes) total() time.Duration { return s.parse + s.build + s.session }

// setup collects the heap, so that neither the timed setup nor the
// repetition after it pays for the previous repetition's garbage, then
// opens a public target.
func setup(wl *workload, handler func(stateslice.QueryID, *stateslice.Tuple)) (*publicTarget, setupTimes, error) {
	runtime.GC()
	return newPublicTarget(wl, handler)
}

// newPublicTarget parses the workload's SliceQL, builds the plan with the
// result handler and opens a session, timing each call.
func newPublicTarget(wl *workload, handler func(stateslice.QueryID, *stateslice.Tuple)) (*publicTarget, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w, err := wl.parse()
	t1 := time.Now()
	if err != nil {
		return nil, st, fmt.Errorf("parse: %w", err)
	}
	opts := append(wl.options(), stateslice.WithResultHandler(handler))
	p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
	t2 := time.Now()
	if err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	t3 := time.Now()
	if err != nil {
		return nil, st, fmt.Errorf("new session: %w", err)
	}
	st = setupTimes{parse: t1.Sub(t0), build: t2.Sub(t1), session: t3.Sub(t2)}
	return &publicTarget{w: w, opts: opts, sess: sess}, st, nil
}

func (p *publicTarget) Feed(t *stateslice.Tuple) error { return p.sess.Feed(t) }

func (p *publicTarget) Attach(ql string) (int, error) {
	id, err := stateslice.AttachQuery(p.sess, ql)
	return int(id), err
}

func (p *publicTarget) Detach(id int) error { return p.sess.Detach(stateslice.QueryID(id)) }

func (p *publicTarget) Checkpoint() (checkpoint, error) {
	cp, err := p.sess.Checkpoint(context.Background())
	if err != nil {
		return checkpoint{}, err
	}
	t0 := time.Now()
	blob, err := cp.Bytes()
	t1 := time.Now()
	if err != nil {
		return checkpoint{}, err
	}
	dec, err := stateslice.DecodeCheckpoint(blob)
	t2 := time.Now()
	if err != nil {
		return checkpoint{}, err
	}
	return checkpoint{v: dec, bytes: len(blob), tuples: dec.StateTuples(), encode: t1.Sub(t0), decode: t2.Sub(t1)}, nil
}

func (p *publicTarget) Rebalance() (bool, error) { return p.sess.Rebalance(context.Background()) }

func (p *publicTarget) Restore(cp checkpoint) error {
	plan, err := stateslice.Build(p.w, stateslice.MemOpt, append(p.opts, stateslice.WithRestore(cp.v.(*stateslice.Checkpoint)))...)
	if err != nil {
		return err
	}
	p.sess, err = plan.NewSession(stateslice.RunConfig{})
	return err
}

func (p *publicTarget) Finish() (*stateslice.Result, error) {
	res := p.sess.Finish()
	return res, res.Err
}

func (p *publicTarget) Close() { _ = p.sess.Close(context.Background()) } // abandoned session; its error is not needed

// queryState is one query's view of its result stream. The padding keeps
// states of queries delivered on different goroutines off one cache line.
type queryState struct {
	d   digest
	lat []int64 // ns from the feed of a probing tuple to its first result
	_   [64]byte
}

// collector is the result handler: it digests every query's results and
// samples result latency. Each query's results arrive on one goroutine.
type collector struct {
	feedStart []int64 // nanotime at the start of the Feed of Seq i
	qs        []queryState
	all       []int64 // scratch: every query's latencies, for percentiles
}

func newCollector(n int, groups []uint64) *collector {
	c := &collector{feedStart: make([]int64, n+1), qs: make([]queryState, len(groups))}
	for i, g := range groups {
		c.qs[i].lat = make([]int64, 0, g)
	}
	return c
}

func (c *collector) reset() {
	for i := range c.qs {
		c.qs[i].d = digest{}
		c.qs[i].lat = c.qs[i].lat[:0]
	}
}

func (c *collector) handle(qi stateslice.QueryID, t *stateslice.Tuple) {
	s := &c.qs[qi]
	if s.d.add(t) {
		s.lat = append(s.lat, nanotime()-c.feedStart[t.Seq])
	}
}

// reference holds each query's expected digest, computed by the Unshared
// strategy, an independent path: no slices and no unions.
type reference struct {
	Digest, Results, Groups []uint64
}

// computeReference runs the Unshared plan over the input once per distinct
// window and digests each query's results within its subscription span.
func computeReference(wl *workload, in []*stateslice.Tuple, sched *schedule) (*reference, error) {
	w, err := wl.parse()
	if err != nil {
		return nil, err
	}
	windows := slices.Clone(sched.windows)
	slices.Sort(windows)
	windows = slices.Compact(windows)
	ids := make([][]int, len(windows))
	for id, win := range sched.windows {
		i, _ := slices.BinarySearch(windows, win)
		ids[i] = append(ids[i], id)
	}
	rw := stateslice.Workload{Join: w.Join}
	for _, win := range windows {
		rw.Queries = append(rw.Queries, stateslice.Query{Window: win})
	}
	ds := make([]digest, len(sched.windows))
	opts := []stateslice.Option{stateslice.WithResultHandler(func(qi stateslice.QueryID, t *stateslice.Tuple) {
		for _, id := range ids[qi] {
			if sp := sched.spans[id]; t.Seq >= sp.from && t.Seq <= sp.to {
				ds[id].add(t)
			}
		}
	})}
	if _, ok := w.Join.(stateslice.Equijoin); ok {
		// Equijoins probe a hash index: the same results, and no
		// nested-loop scan of the sparse workload's long windows.
		opts = append(opts, stateslice.WithHashProbing())
	}
	p, err := stateslice.Build(rw, stateslice.Unshared, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if _, err := p.Run(stateslice.SliceSource(in), stateslice.RunConfig{SampleEvery: 1 << 30}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := &reference{}
	for i := range ds {
		ref.Digest = append(ref.Digest, ds[i].value())
		ref.Results = append(ref.Results, ds[i].results)
		ref.Groups = append(ref.Groups, ds[i].groups)
	}
	return ref, nil
}

// cachedReference returns the reference from the cache directory when an
// earlier run of the same binary computed it for the same workload, input
// and schedule, and computes and stores it otherwise. The binary is part of
// the key because it holds the library: another version of the library may
// produce other join results on purpose. An empty dir disables the cache.
func cachedReference(dir string, wl *workload, in []*stateslice.Tuple, sched *schedule) (*reference, error) {
	if dir == "" {
		return computeReference(wl, in, sched)
	}
	exe, err := executableHash()
	if err != nil {
		return nil, fmt.Errorf("reference cache: %w", err)
	}
	path := filepath.Join(dir, referenceKey(exe, wl, in, sched)+".json")
	if b, err := os.ReadFile(path); err == nil {
		var ref reference
		if json.Unmarshal(b, &ref) == nil && len(ref.Digest) == len(sched.windows) {
			return &ref, nil
		}
	}
	ref, err := computeReference(wl, in, sched)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return ref, os.Rename(tmp, path)
}

// executableHash hashes the running binary's file.
func executableHash() (uint64, error) {
	path, err := os.Executable()
	if err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// referenceKey hashes everything a reference depends on: the binary, the
// workload, its input and its schedule.
func referenceKey(exe uint64, wl *workload, in []*stateslice.Tuple, sched *schedule) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s|%s|%v|%v|%v|", exe, wl.name, wl.ql, wl.join, sched.windows, sched.spans)
	var buf [40]byte
	for _, t := range in {
		binary.LittleEndian.PutUint64(buf[0:], t.Seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(t.Time))
		binary.LittleEndian.PutUint64(buf[16:], uint64(t.Key))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(t.Value))
		binary.LittleEndian.PutUint64(buf[32:], uint64(t.Stream))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s-%016x", wl.name, h.Sum64())
}

// rep is what one repetition of a workload measured.
type rep struct {
	wall            time.Duration // first Feed to the return of Finish
	inputs, outputs int
	totals          stateslice.Result // Meter and ReplicaComparisons summed over sessions
	allocs, bytes   uint64
	heapPeak        uint64
	stateAvg        float64    // mean window-state size of the last session
	rt0, rt1        rtSnapshot // process counters around the repetition
	latP50, latP99  float64    // first-result latency of the (query, input) pairs, µs
	latSamples      int
	barriers        [len(eventNames)][]float64
	restore         time.Duration
	ckpts           []checkpoint
	moves           int
	digests         []uint64
	attempted       int
	failed          int
	errs            []string
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// addResult folds one session's result into the rep.
func (r *rep) addResult(res *stateslice.Result, err error) {
	r.attempted++
	if err != nil {
		r.fail("finish: %v", err)
		return
	}
	r.outputs += int(res.TotalOutputs())
	r.stateAvg = res.Memory.Avg
	r.totals.Meter.Add(res.Meter)
	if r.totals.ReplicaComparisons == nil {
		r.totals.ReplicaComparisons = make([]uint64, len(res.ReplicaComparisons))
	}
	for i, c := range res.ReplicaComparisons {
		r.totals.ReplicaComparisons[i] += c
	}
	if res.OrderViolations > 0 {
		r.fail("%d order violations reported by the sinks", res.OrderViolations)
	}
}

// drive feeds the whole input into tg, running the churn barriers at their
// positions, finishes it and checks every query's output. heap is sampled
// every 256 inputs.
func drive(wl *workload, in []*stateslice.Tuple, sched *schedule, ref *reference, tg target, c *collector, heap *heapSampler) *rep {
	r := &rep{}
	c.reset()
	heap.peak = 0
	before := readRuntime()
	start := time.Now()
	evs := sched.events
	aborted := false
	for i, t := range in {
		for len(evs) > 0 && evs[0].pos == i {
			runBarrier(wl, tg, evs[0], r)
			evs = evs[1:]
		}
		c.feedStart[t.Seq] = nanotime()
		r.attempted++
		if err := tg.Feed(t); err != nil {
			r.fail("feed %d: %v", t.Seq, err)
			tg.Close()
			aborted = true
			break
		}
		if i&255 == 0 {
			heap.sample()
		}
	}
	if !aborted {
		r.addResult(tg.Finish())
	}
	r.wall = time.Since(start)
	after := readRuntime()
	heap.sample()
	r.inputs = len(in)
	r.allocs = after.allocs - before.allocs
	r.bytes = after.allocByte - before.allocByte
	r.heapPeak = heap.peak
	r.rt0, r.rt1 = before, after
	c.all = c.all[:0]
	for id := range c.qs {
		c.all = append(c.all, c.qs[id].lat...)
	}
	r.latSamples = len(c.all)
	r.latP50 = float64(percentile(c.all, 0.50)) / 1e3
	r.latP99 = float64(percentile(c.all, 0.99)) / 1e3
	for id := range c.qs {
		s := &c.qs[id]
		got := s.d.value()
		r.digests = append(r.digests, got)
		r.attempted++
		switch {
		case s.d.disorder > 0:
			r.fail("query %d: %d results out of (Time, Seq) order", id, s.d.disorder)
		case got != ref.Digest[id] || s.d.results != ref.Results[id]:
			r.fail("query %d: digest %x over %d results, Unshared reference %x over %d", id, got, s.d.results, ref.Digest[id], ref.Results[id])
		}
	}
	return r
}

// runBarrier makes one churn barrier call and records its latency.
func runBarrier(wl *workload, tg target, ev event, r *rep) {
	r.attempted++
	t0 := time.Now()
	var err error
	switch ev.kind {
	case evAttach:
		var id int
		id, err = tg.Attach(queryText(fmt.Sprintf("c%d", ev.id), wl.on, ev.window))
		if err == nil && id != ev.id {
			err = fmt.Errorf("attach returned query %d, schedule expects %d", id, ev.id)
		}
	case evDetach:
		err = tg.Detach(ev.id)
	case evCheckpoint:
		var cp checkpoint
		if cp, err = tg.Checkpoint(); err == nil {
			// Keep its sizes and times, not the snapshot: repetitions
			// are retained until the run ends.
			cp.v = nil
			r.ckpts = append(r.ckpts, cp)
		}
	case evRebalance:
		var moved bool
		if moved, err = tg.Rebalance(); moved {
			r.moves++
		}
	case evFailover:
		var cp checkpoint
		if cp, err = tg.Checkpoint(); err != nil {
			break
		}
		r.addResult(tg.Finish())
		t1 := time.Now()
		err = tg.Restore(cp)
		r.restore = time.Since(t1)
	}
	r.barriers[ev.kind] = append(r.barriers[ev.kind], float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		r.fail("%s before input %d: %v", eventNames[ev.kind], ev.pos, err)
	}
}
