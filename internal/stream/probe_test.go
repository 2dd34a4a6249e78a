package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seqOrder is a custom predicate on the kernel's fallback path. It is
// asymmetric in its arguments (A's Seq must be the smaller one), so a probe
// that swapped the stream-A/stream-B argument order would fail the
// equivalence test.
type seqOrder struct{}

func (seqOrder) Match(a, b *Tuple) bool { return a.Seq < b.Seq && (a.Key^b.Key)&1 == 0 }
func (seqOrder) String() string         { return "seqOrder" }

// kernelPredicates covers every kernel (including BandJoin's empty B < 0
// and equijoin-like B = 0 cases and a bound wide enough to reach across the
// whole int64 key range) plus two predicates on the Match fallback.
var kernelPredicates = []JoinPredicate{
	Equijoin{},
	BandJoin{B: -1},
	BandJoin{B: 0},
	BandJoin{B: 2},
	BandJoin{B: math.MaxInt64},
	FractionMatch{S: 0.3},
	FractionMatch{S: 0},
	FractionMatch{S: 1},
	CrossProduct{},
	seqOrder{},
}

// randKey draws mostly from a small domain (so equijoin and band probes
// hit), and otherwise from the extremes of the int64 range, where a signed
// key difference would overflow.
func randKey(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return math.MinInt64 + rng.Int63n(3)
	case 1:
		return math.MaxInt64 - rng.Int63n(3)
	default:
		return rng.Int63n(8) - 4
	}
}

// checkColumns asserts that every live column entry mirrors the fields of
// its ring tuple.
func checkColumns(t *testing.T, s *State, step string) {
	t.Helper()
	if s.n > 0 && (len(s.keys) != len(s.buf) || len(s.times) != len(s.buf) || len(s.seqs) != len(s.buf)) {
		t.Fatalf("%s: columns sized %d/%d/%d for a ring of %d", step, len(s.keys), len(s.times), len(s.seqs), len(s.buf))
	}
	for i := 0; i < s.n; i++ {
		j := (s.head + i) & (len(s.buf) - 1)
		tp := s.buf[j]
		if s.keys[j] != tp.Key || Time(s.times[j]) != tp.Time || uint64(s.seqs[j]) != tp.Seq {
			t.Fatalf("%s: column entry %d = (%d,%d,%d), tuple has (%d,%d,%d)", step, i, s.keys[j], s.times[j], uint64(s.seqs[j]), tp.Key, tp.Time, tp.Seq)
		}
	}
	if ft, ok := s.FrontTime(); ok != (s.n > 0) || (ok && ft != s.Front().Time) {
		t.Fatalf("%s: FrontTime = (%d, %v), front tuple %v", step, ft, ok, s.Front())
	}
}

// checkProbes asserts, for every predicate and a probe from each stream,
// that the kernel's hits equal a brute-force Match over Snapshot, in order.
func checkProbes(t *testing.T, s *State, rng *rand.Rand, step string) {
	t.Helper()
	snap := s.Snapshot()
	var hits []int
	for _, pred := range kernelPredicates {
		for _, id := range []ID{StreamA, StreamB} {
			probe := &Tuple{Stream: id, Key: randKey(rng), Seq: rng.Uint64()}
			var want []int
			for i, f := range snap {
				a, b := probe, f
				if id == StreamB {
					a, b = f, probe
				}
				if pred.Match(a, b) {
					want = append(want, i)
				}
			}
			hits = s.Probe(pred, probe, hits[:0])
			if fmt.Sprint(hits) != fmt.Sprint(want) {
				t.Fatalf("%s: %s probe %s from %s: hits %v, Match over Snapshot %v", step, pred, probe, id, hits, want)
			}
			for k, i := range hits {
				if s.At(i) != snap[want[k]] {
					t.Fatalf("%s: %s: hit %d resolves to %v, want %v", step, pred, i, s.At(i), snap[want[k]])
				}
			}
		}
	}
}

// TestProbeKernelMatchesBruteForce drives randomized states through every
// mutation the engine performs — Insert, PopFront, wrap-around, grow,
// Clear, a RestoreState-style refill, AppendAll and WithIndex — and checks
// after each one that the columns mirror the tuples and that the kernel
// agrees with Match.
func TestProbeKernelMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewState()
		var clock Time
		var seq uint64 = uint64(rng.Int63()) << 1 // Seq bits above MaxInt64 too
		next := func() *Tuple {
			clock += Time(rng.Intn(3))
			seq++
			return &Tuple{Time: clock, Seq: seq, Key: randKey(rng)}
		}
		for op := 0; op < 400; op++ {
			var step string
			switch r := rng.Intn(20); {
			case r < 9:
				step = "Insert"
				for k := rng.Intn(6); k >= 0; k-- {
					s.Insert(next())
				}
			case r < 15:
				step = "PopFront"
				for k := rng.Intn(5); k >= 0; k-- {
					s.PopFront()
				}
			case r == 15:
				step = "Clear"
				s.Clear()
			case r == 16:
				step = "refill"
				snap := s.Snapshot()
				s.Clear()
				for _, tp := range snap {
					s.Insert(tp)
				}
			case r == 17:
				step = "AppendAll"
				other := NewState()
				for k := rng.Intn(40); k >= 0; k-- {
					other.Insert(next())
				}
				s.AppendAll(other)
				checkColumns(t, other, "AppendAll source")
			case r == 18:
				step = "WithIndex"
				if !s.Indexed() {
					s.WithIndex()
				}
			default:
				step = "fresh"
				s = NewState()
			}
			step = fmt.Sprintf("seed %d op %d (%s, len %d, cap %d)", seed, op, step, s.Len(), len(s.buf))
			checkColumns(t, s, step)
			checkProbes(t, s, rng, step)
		}
	}
}

// BenchmarkProbeKernel measures one probe of an n-tuple state (wrapped
// around the ring) per iteration, for each kernel and the Match fallback.
func BenchmarkProbeKernel(b *testing.B) {
	for _, bc := range []struct {
		name string
		pred JoinPredicate
	}{
		{"equijoin", Equijoin{}},
		{"band", BandJoin{B: 1}},
		{"fraction", FractionMatch{S: 0.025}},
		{"generic", seqOrder{}},
	} {
		for _, n := range []int{256, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				s := NewState()
				for i := 0; i < n+n/2; i++ {
					if i == n {
						for s.Len() > n/2 {
							s.PopFront()
						}
					}
					s.Insert(&Tuple{Time: Time(i), Seq: uint64(i), Key: rng.Int63n(1000)})
				}
				probe := &Tuple{Stream: StreamB, Seq: uint64(2 * n), Key: 500}
				hits := s.Probe(bc.pred, probe, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hits = s.Probe(bc.pred, probe, hits[:0])
				}
			})
		}
	}
}
