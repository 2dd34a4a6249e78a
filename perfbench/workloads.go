package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"stateslice"
)

// workload is one named benchmark workload: a SliceQL query set, the build
// options, the input it is fed and, for session-churn, the barrier schedule
// interleaved with the feed.
type workload struct {
	name string
	// ql is the SliceQL query set every setup parses.
	ql string
	// on is the SliceQL join clause, reused by the queries churn attaches.
	on string
	// join replaces the parsed join when set: SliceQL has no syntax for
	// the paper's fixed-selectivity FractionMatch join.
	join   stateslice.JoinPredicate
	input  inputSpec
	shards int // 0 runs the sequential engine
	churn  bool
	// keyMax is the top of the declared key domain [0, keyMax] (band
	// partitioning only).
	keyMax int64
}

// uniformWindows are the twelve windows of the paper's §7.3 uniform
// distribution (Table 4): 2.5, 5, ..., 30 seconds.
func uniformWindows() []stateslice.Time {
	var out []stateslice.Time
	for i := 1; i <= 12; i++ {
		out = append(out, stateslice.Time(i)*2500*stateslice.Millisecond)
	}
	return out
}

// queryText renders one SliceQL statement over the streams a and b.
func queryText(name, on string, window stateslice.Time) string {
	return fmt.Sprintf("%s: SELECT * FROM a JOIN b ON %s WINDOW %d ms;", name, on, window/stateslice.Millisecond)
}

// querySet renders the twelve uniform-window statements sharing one join.
func querySet(on string) string {
	var b strings.Builder
	for i, w := range uniformWindows() {
		b.WriteString(queryText(fmt.Sprintf("q%d", i+1), on, w))
		b.WriteByte('\n')
	}
	return b.String()
}

const (
	equiOn = "a.key = b.key"
	bandOn = "BAND(a.key, b.key, 1)"
)

// All workloads run at the paper's §7.1 rate of 80 tuples/s per stream; the
// virtual duration sets how much work one repetition is, so window state
// stays at paper scale.
var workloads = []*workload{
	{
		name:  "memopt-dense",
		ql:    querySet(equiOn),
		on:    equiOn,
		join:  stateslice.FractionMatch{S: 0.025},
		input: inputSpec{Rate: 80, Seconds: 150},
	},
	{
		name:   "shard-sparse",
		ql:     querySet(equiOn),
		on:     equiOn,
		input:  inputSpec{Rate: 80, Seconds: 1800, Keys: 4000},
		shards: 4,
	},
	{
		name:   "session-churn",
		ql:     querySet(bandOn),
		on:     bandOn,
		input:  inputSpec{Rate: 80, Seconds: 100, Keys: 120, Skew: true},
		shards: 4,
		churn:  true,
		keyMax: 119,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// parse compiles the workload's query set through SliceQL.
func (wl *workload) parse() (stateslice.Workload, error) {
	w, err := stateslice.ParseWorkload(wl.ql)
	if err != nil {
		return w, err
	}
	if wl.join != nil {
		w.Join = wl.join
	}
	return w, nil
}

// options returns the build options of the workload (without the result
// handler).
func (wl *workload) options() []stateslice.Option {
	var opts []stateslice.Option
	if wl.shards > 0 {
		opts = append(opts, stateslice.WithShards(wl.shards))
	}
	if wl.churn {
		opts = append(opts, stateslice.WithMigratable(), stateslice.WithKeyRange(0, wl.keyMax))
	}
	return opts
}

// Barrier kinds of the churn schedule.
const (
	evAttach = iota
	evDetach
	evCheckpoint
	evRebalance
	evFailover
)

var eventNames = [...]string{"attach", "detach", "checkpoint", "rebalance", "failover"}

// event is one barrier call made before the input at position pos is fed.
type event struct {
	pos    int
	kind   int
	window stateslice.Time // attach
	id     int             // the query an attach creates or a detach removes
}

// span is the range of probing-tuple Seqs whose results a query receives.
type span struct{ from, to uint64 }

// schedule is the churn barrier sequence plus every query's subscription
// span, all fixed by the input length and the seed.
type schedule struct {
	events  []event
	windows []stateslice.Time // by query ID
	spans   []span            // by query ID
}

// attachWindows is the pool admitted queries draw from: the midpoints of
// the built-in windows, so every attach splits a slice.
var attachWindows = []stateslice.Time{
	3750 * stateslice.Millisecond, 8750 * stateslice.Millisecond, 13750 * stateslice.Millisecond,
	18750 * stateslice.Millisecond, 23750 * stateslice.Millisecond, 28750 * stateslice.Millisecond,
}

// churnPattern repeats over the schedule's slots: three attaches, three
// detaches of the oldest admitted query, a checkpoint and a rebalance.
var churnPattern = []int{evAttach, evAttach, evDetach, evCheckpoint, evAttach, evDetach, evRebalance, evDetach}

// churnCycles is how often the pattern repeats; one failover sits in the
// middle of the stream.
const churnCycles = 8

// newSchedule builds the schedule for n inputs. Built-in queries keep their
// workload index as ID and subscribe to the whole stream; admitted queries
// get the next IDs in attach order.
func newSchedule(wl *workload, n int, seed uint64) *schedule {
	s := &schedule{}
	for _, w := range uniformWindows() {
		s.windows = append(s.windows, w)
		s.spans = append(s.spans, span{1, uint64(n)})
	}
	if !wl.churn {
		return s
	}
	rng := rand.New(rand.NewPCG(seed, 0xc4a2))
	slots := churnCycles * len(churnPattern)
	var live []int
	for k := 0; k < slots; k++ {
		ev := event{pos: (k + 1) * n / (slots + 1), kind: churnPattern[k%len(churnPattern)]}
		switch ev.kind {
		case evAttach:
			ev.id = len(s.windows)
			ev.window = attachWindows[rng.IntN(len(attachWindows))]
			s.windows = append(s.windows, ev.window)
			s.spans = append(s.spans, span{uint64(ev.pos) + 1, uint64(n)})
			live = append(live, ev.id)
		case evDetach:
			ev.id, live = live[0], live[1:]
			s.spans[ev.id].to = uint64(ev.pos)
		}
		s.events = append(s.events, ev)
		if k == slots/2-1 {
			s.events = append(s.events, event{pos: ev.pos + n/(2*(slots+1)), kind: evFailover})
		}
	}
	return s
}
