// Command perfbench is the repository's benchmark. It drives one named
// workload through the public stateslice API as a closed loop with a single
// client (the caller blocks on every Feed), checks every query's output
// against the Unshared strategy, and prints the end-to-end metrics. With
// -trace 1 it also drives the same plans built through the internal
// constructors with timing decorators on every operator and prints the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload memopt-dense -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json does.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"service_rate_tps", "tuples/s"},
	{"result_latency_p50_us", "us"},
	{"result_latency_p99_us", "us"},
	{"comparisons_per_input", "cmp/input"},
	{"allocs_per_input", "allocs/input"},
	{"alloc_bytes_per_input", "B/input"},
	{"live_heap_peak_mb", "MB"},
}

const (
	// minReps is the fewest measured repetitions a run makes, however
	// short -seconds is.
	minReps = 3
	// setupSamples is how many setups a run times; repetitions count.
	setupSamples = 41
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "memopt-dense", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long the measured repetitions run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced repetitions and reports per-layer metrics")
	cache := flag.String("cache", "", "directory caching the Unshared reference digests between runs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	in := generate(wl.input, *seed)
	sched := newSchedule(wl, len(in), *seed)
	t0 := time.Now()
	ref, err := cachedReference(*cache, wl, in, sched)
	if err != nil {
		return err
	}
	refTime := time.Since(t0)

	c := newCollector(len(in), ref.Groups)
	heap := newHeapSampler()
	var setups []setupTimes
	once := func() (*rep, error) {
		tg, st, err := setup(wl, c.handle)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
		return drive(wl, in, sched, ref, tg, c, heap), nil
	}
	// The first repetition warms caches and the heap; it is checked but
	// not measured.
	warm, err := once()
	if err != nil {
		return err
	}
	all := []*rep{warm}
	var reps []*rep
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for len(reps) < minReps || time.Now().Before(deadline) {
		r, err := once()
		if err != nil {
			return err
		}
		reps = append(reps, r)
		all = append(all, r)
	}
	for len(setups) < setupSamples {
		tg, st, err := setup(wl, c.handle)
		if err != nil {
			return err
		}
		tg.Close()
		setups = append(setups, st)
	}

	e2e := endToEndMetrics(reps, setups)
	var layers map[string]float64
	if *trace == 1 {
		var traced *rep
		if layers, traced, err = tracedRun(wl, in, sched, ref, reps, setups); err != nil {
			return err
		}
		all = append(all, traced)
	}

	attempted, failed := 0, 0
	var errs []string
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
		errs = append(errs, r.errs...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}

	lat := 0
	for _, r := range reps {
		lat += r.latSamples
	}
	meta := map[string]any{
		"workload": wl.name, "seed": *seed, "gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go_version": runtime.Version(), "inputs_per_rep": len(in), "virtual_seconds_per_rep": wl.input.Seconds,
		"measured_reps": len(reps), "setup_samples": len(setups), "latency_samples": lat,
		"reference_s": refTime.Seconds(), "error_rate": float64(failed) / float64(attempted),
		"loop": "closed, 1 client",
	}
	if wl.churn {
		meta["barrier_samples"] = barrierCounts(reps)
	}
	var rates, p99s []float64
	for _, r := range reps {
		rates = append(rates, repMetrics(r)["service_rate_tps"])
		p99s = append(p99s, r.latP99)
	}
	meta["rep_service_rate_tps"] = rates
	meta["rep_result_latency_p99_us"] = p99s
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", metaJSON)

	defs, vals := endToEnd, e2e
	if *trace == 1 {
		defs, vals = perLayer, layers
		specific := workloadLayers(wl)
		printTable("workload layers (traced)", specific, layers)
		line, err := json.Marshal(metricsJSON(specific, layers))
		if err != nil {
			return err
		}
		fmt.Printf("layers %s\n", line)
	}
	printTable("metrics", defs, vals)
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metricsJSON(defs, vals),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricsJSON renders metrics as {"name": {"value": v, "unit": u}}.
func metricsJSON(defs []metricDef, vals map[string]float64) map[string]any {
	out := map[string]any{}
	for _, m := range defs {
		out[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
	}
	return out
}

// endToEndMetrics reduces the measured repetitions to the median of each
// end-to-end metric.
func endToEndMetrics(reps []*rep, setups []setupTimes) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range reps {
		for k, v := range repMetrics(r) {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range per {
		out[k] = median(vs)
	}
	var st []float64
	for _, s := range setups {
		st = append(st, s.total().Seconds())
	}
	out["setup_s"] = median(st)
	return out
}

// repMetrics computes the end-to-end metrics of one repetition (all but
// setup_s).
func repMetrics(r *rep) map[string]float64 {
	in := float64(r.inputs)
	return map[string]float64{
		"service_rate_tps":      float64(r.inputs+r.outputs) / r.wall.Seconds(),
		"result_latency_p50_us": r.latP50,
		"result_latency_p99_us": r.latP99,
		"comparisons_per_input": float64(r.totals.Meter.Comparisons()) / in,
		"allocs_per_input":      float64(r.allocs) / in,
		"alloc_bytes_per_input": float64(r.bytes) / in,
		"live_heap_peak_mb":     float64(r.heapPeak) / (1 << 20),
	}
}

// barrierCounts reports how many samples back each churn barrier metric.
func barrierCounts(reps []*rep) map[string]int {
	out := map[string]int{}
	for _, r := range reps {
		for k, s := range r.barriers {
			out[eventNames[k]] += len(s)
		}
	}
	return out
}

func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("%s:\n", title)
	for _, m := range defs {
		fmt.Printf("  %-32s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
}
