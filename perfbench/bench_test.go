package main

import (
	"reflect"
	"testing"

	"stateslice"
	"stateslice/internal/operator"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
	"stateslice/internal/sliceql"
	"stateslice/internal/stream"
)

func TestGenerateReproducesInput(t *testing.T) {
	spec := inputSpec{Rate: 80, Seconds: 20, Keys: 120, Skew: true}
	a, b := generate(spec, 7), generate(spec, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, generate(spec, 8)) {
		t.Fatal("different seeds generated the same input")
	}
	for i, tu := range a {
		if tu.Seq != uint64(i+1) {
			t.Fatalf("tuple %d has Seq %d, want its feed position %d", i, tu.Seq, i+1)
		}
		if i > 0 && tu.Time < a[i-1].Time {
			t.Fatalf("tuple %d at %v precedes tuple %d at %v", i, tu.Time, i-1, a[i-1].Time)
		}
	}
}

// smallChurn is session-churn over a short input, small enough for a test.
func smallChurn(t *testing.T) *workload {
	churn, err := lookupWorkload("session-churn")
	if err != nil {
		t.Fatal(err)
	}
	wl := *churn
	wl.input.Seconds = 40
	return &wl
}

// runChecked drives one public-API repetition of wl against ref.
func runChecked(t *testing.T, wl *workload, in []*stateslice.Tuple, sched *schedule, ref *reference) *rep {
	t.Helper()
	c := newCollector(len(in), ref.Groups)
	tg, _, err := newPublicTarget(wl, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	return drive(wl, in, sched, ref, tg, c, newHeapSampler())
}

func TestOutputCheck(t *testing.T) {
	wl := smallChurn(t)
	in := generate(wl.input, 3)
	sched := newSchedule(wl, len(in), 3)
	ref, err := computeReference(wl, in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if r := runChecked(t, wl, in, sched, ref); r.failed != 0 {
		t.Fatalf("correct run reported %d failures: %v", r.failed, r.errs)
	}
	// A corrupted expected digest must fail exactly that query's check.
	bad := *ref
	bad.Digest = append([]uint64(nil), ref.Digest...)
	bad.Digest[len(bad.Digest)-1] ^= 1
	if r := runChecked(t, wl, in, sched, &bad); r.failed != 1 {
		t.Fatalf("corrupted digest: %d failures, want 1 (%v)", r.failed, r.errs)
	}
}

// TestTracedRunReproducesUntraced runs every workload, shortened, through
// the public API and then through the traced constructors: the traced
// repetition must pass the output check and reproduce the untraced
// digests and comparison counts.
func TestTracedRunReproducesUntraced(t *testing.T) {
	for _, base := range workloads {
		t.Run(base.name, func(t *testing.T) {
			wl := *base
			wl.input.Seconds = 40
			in := generate(wl.input, 5)
			sched := newSchedule(&wl, len(in), 5)
			ref, err := computeReference(&wl, in, sched)
			if err != nil {
				t.Fatal(err)
			}
			r := runChecked(t, &wl, in, sched, ref)
			if r.failed != 0 {
				t.Fatalf("untraced run: %v", r.errs)
			}
			_, traced, err := tracedRun(&wl, in, sched, ref, []*rep{r}, []setupTimes{{}})
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("traced run: %d of %d checks failed: %v", traced.failed, traced.attempted, traced.errs)
			}
		})
	}
}

func TestDigestIgnoresOrderWithinProbe(t *testing.T) {
	a1 := &stateslice.Tuple{Seq: 1}
	a2 := &stateslice.Tuple{Seq: 2}
	b3 := &stateslice.Tuple{Seq: 3, Time: 5}
	b4 := &stateslice.Tuple{Seq: 4, Time: 6}
	r := func(a, b *stateslice.Tuple) *stateslice.Tuple {
		return &stateslice.Tuple{A: a, B: b, Seq: b.Seq, Time: b.Time}
	}
	var x, y, z digest
	for _, t := range []*stateslice.Tuple{r(a1, b3), r(a2, b3), r(a1, b4)} {
		x.add(t)
	}
	for _, t := range []*stateslice.Tuple{r(a2, b3), r(a1, b3), r(a1, b4)} {
		y.add(t)
	}
	for _, t := range []*stateslice.Tuple{r(a1, b4), r(a1, b3), r(a2, b3)} {
		z.add(t)
	}
	if x.value() != y.value() {
		t.Error("reordering results of one probing tuple changed the digest")
	}
	if z.value() == x.value() || z.disorder != 1 {
		t.Errorf("reordering probing tuples: digest equal %v, disorder %d, want different and 1", z.value() == x.value(), z.disorder)
	}
}

// Microbenchmarks of each exported layer entry point, over fixed inputs.
// The cross-replica kmerge step and the assembly emit of internal/shard are
// unexported and have none.

var (
	benchInput = generate(inputSpec{Rate: 80, Seconds: 600, Keys: 120, Skew: true}, 1)
	benchSink  int
)

// BenchmarkSlicedBinaryJoinStep feeds one input (female then male copy)
// per op into a 30 s slice at the dense workload's selectivity. The input
// repeats as often as b.N needs, each pass shifted in time and Seq past the
// one before.
func BenchmarkSlicedBinaryJoinStep(b *testing.B) {
	in := stream.NewQueue()
	j, err := operator.NewSlicedBinaryJoin("slice", 0, 30*stateslice.Second, stateslice.FractionMatch{S: 0.025}, in)
	if err != nil {
		b.Fatal(err)
	}
	j.Result().AttachFunc(func(stream.Item) {})
	j.Next().AttachFunc(func(stream.Item) {})
	var m operator.CostMeter
	feed := func(t *stateslice.Tuple) {
		in.Push(stream.RoleItem(t, stream.RoleFemale))
		in.Push(stream.RoleItem(t, stream.RoleMale))
		j.Step(&m, -1)
	}
	const warm = 160 * 30 // fill the window first
	for _, t := range benchInput[:warm] {
		feed(t)
	}
	rest := benchInput[warm:]
	last := benchInput[len(benchInput)-1]
	// Two buffers take turns: a pass rewrites the buffer used two passes
	// earlier, whose tuples have long left the window.
	var bufs [2][]stateslice.Tuple
	fill := func(pass int) []stateslice.Tuple {
		buf := bufs[pass%2]
		if buf == nil {
			buf = make([]stateslice.Tuple, len(rest))
			bufs[pass%2] = buf
		}
		for k, t := range rest {
			buf[k] = *t
			buf[k].Time += stateslice.Time(pass) * last.Time
			buf[k].Seq += uint64(pass) * last.Seq
		}
		return buf
	}
	cur := fill(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rest)
		if k == 0 && i > 0 {
			b.StopTimer()
			cur = fill(i / len(rest))
			b.StartTimer()
		}
		feed(&cur[k])
	}
}

// BenchmarkUnionStep merges, per op, one probing tuple's results from
// twelve slices (five each, equal keys) plus each slice's punctuation.
func BenchmarkUnionStep(b *testing.B) {
	u := operator.NewUnion("union")
	var ins []*stream.Queue
	for i := 0; i < 12; i++ {
		ins = append(ins, u.AddInput())
	}
	u.Out().AttachFunc(func(stream.Item) {})
	a := &stateslice.Tuple{Seq: 1}
	// Each Step drains the queues, so one result tuple is reused with
	// an advancing key.
	r := &stateslice.Tuple{A: a, B: a}
	var m operator.CostMeter
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r.Seq, r.Time = uint64(i+2), stateslice.Time(i+2)
		for _, q := range ins {
			for k := 0; k < 5; k++ {
				q.PushTuple(r)
			}
			q.PushPunct(r.Time)
		}
		benchSink += u.Step(&m, -1)
	}
}

// BenchmarkSinkAcceptRun delivers a 256-result run per op.
func BenchmarkSinkAcceptRun(b *testing.B) {
	s := operator.NewDirectSink("sink").OnResult(func(*stream.Tuple) {})
	a := &stateslice.Tuple{Seq: 1}
	run := make([]stream.Item, 256)
	for k := range run {
		run[k] = stream.TupleItem(&stateslice.Tuple{A: a, B: a, Seq: 2, Time: 2})
	}
	b.ReportAllocs()
	for b.Loop() {
		s.AcceptRun(run)
	}
}

// BenchmarkRouterStep routes 64 results over the twelve uniform windows
// per op.
func BenchmarkRouterStep(b *testing.B) {
	in := stream.NewQueue()
	r := operator.NewRouter("router", in)
	for _, w := range uniformWindows() {
		p, err := r.AddBranch(w)
		if err != nil {
			b.Fatal(err)
		}
		p.AttachFunc(func(stream.Item) {})
	}
	var results []*stateslice.Tuple
	for i := 1; i < 65; i++ {
		results = append(results, &stateslice.Tuple{A: benchInput[0], B: benchInput[i*37], Seq: benchInput[i*37].Seq})
	}
	var m operator.CostMeter
	b.ReportAllocs()
	for b.Loop() {
		for _, t := range results {
			in.PushTuple(t)
		}
		benchSink += r.Step(&m, -1)
	}
}

func BenchmarkPartitionerShard(b *testing.B) {
	p := shard.NewPartitioner(4)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		benchSink += p.Shard(benchInput[i%len(benchInput)].Key)
	}
}

func BenchmarkRangePartitionerReplicas(b *testing.B) {
	p, err := shard.NewRangePartitioner(4, shard.Band{Width: 1, MinKey: 0, MaxKey: 119})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		lo, hi := p.Replicas(benchInput[i%len(benchInput)].Key)
		benchSink += lo + hi
	}
}

// churnCheckpoint snapshots a 4-shard band session after 60 virtual
// seconds of the churn input.
func churnCheckpoint(b *testing.B) *shard.Checkpoint {
	churn, err := lookupWorkload("session-churn")
	if err != nil {
		b.Fatal(err)
	}
	w, err := churn.parse()
	if err != nil {
		b.Fatal(err)
	}
	cfg := plan.StateSliceConfig{Migratable: true}
	e, err := shard.New(shard.Config{
		Shards: 4,
		Band:   &shard.Band{Width: 1, MinKey: 0, MaxKey: 119},
		RestoreFn: func(_ int, cp *plan.ChainCheckpoint) (*plan.StateSlicePlan, error) {
			return plan.RestoreStateSlice(w, cfg, cp)
		},
	}, func(int) (*plan.StateSlicePlan, error) { return plan.BuildStateSlice(w, cfg) })
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range benchInput[:160*60] {
		if err := e.Feed(t); err != nil {
			b.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Finish(); err != nil {
		b.Fatal(err)
	}
	return cp
}

func BenchmarkCheckpointEncode(b *testing.B) {
	cp := churnCheckpoint(b)
	b.ReportAllocs()
	for b.Loop() {
		blob, err := cp.Encode()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(blob)
	}
}

func BenchmarkDecodeCheckpoint(b *testing.B) {
	blob, err := churnCheckpoint(b).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		cp, err := shard.DecodeCheckpoint(blob)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += cp.Shards
	}
}

func BenchmarkSliceQLParse(b *testing.B) {
	src := querySet(bandOn)
	b.ReportAllocs()
	for b.Loop() {
		qs, err := sliceql.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(qs.Stmts)
	}
}
