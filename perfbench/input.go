package main

import (
	"math"
	"math/rand/v2"

	"stateslice"
)

// inputSpec describes one workload's input streams. The benchmark generates
// its own input instead of calling stateslice.Generate, so a change to the
// library's generator cannot change a workload.
type inputSpec struct {
	// Rate is the mean arrival rate of each stream, in tuples per virtual
	// second (Poisson arrivals).
	Rate float64
	// Seconds is the virtual duration of the run.
	Seconds float64
	// Keys is the key domain: keys are drawn uniformly from [0, Keys).
	Keys int64
	// Skew maps each uniform key k onto k*k/Keys, the quadratic skew that
	// piles most of the load onto the low end of the domain.
	Skew bool
}

// generate returns both streams merged in timestamp order, with Seq
// running 1, 2, ... so a tuple's Seq is its 1-based feed position. The same
// seed always gives the same tuples.
func generate(spec inputSpec, seed uint64) []*stateslice.Tuple {
	rng := rand.New(rand.NewPCG(seed, 0x5eed57a7e511ce))
	end := stateslice.Seconds(spec.Seconds)
	next := func(prev stateslice.Time) stateslice.Time {
		gap := stateslice.Time(math.Ceil(rng.ExpFloat64() / spec.Rate * float64(stateslice.Second)))
		return prev + max(gap, 1)
	}
	ta, tb := next(0), next(0)
	var ordA, ordB uint64
	out := make([]*stateslice.Tuple, 0, int(2*spec.Rate*spec.Seconds*1.05))
	for ta <= end || tb <= end {
		t := &stateslice.Tuple{Seq: uint64(len(out) + 1), Value: rng.Float64()}
		if ta <= tb {
			ordA++
			t.Time, t.Stream, t.Ord = ta, stateslice.StreamA, ordA
			ta = next(ta)
		} else {
			ordB++
			t.Time, t.Stream, t.Ord = tb, stateslice.StreamB, ordB
			tb = next(tb)
		}
		if t.Time > end {
			continue
		}
		if spec.Keys > 0 {
			k := rng.Int64N(spec.Keys)
			if spec.Skew {
				k = k * k / spec.Keys
			}
			t.Key = k
		}
		out = append(out, t)
	}
	return out
}
