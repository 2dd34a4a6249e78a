package stream

import "fmt"

// JoinPredicate decides whether a pair of source tuples joins. The paper
// presents its techniques with equijoins but notes they apply to any join
// condition (Section 2); the engine is likewise predicate-agnostic.
//
// Implementations must be deterministic functions of the two tuples so that
// every sharing strategy produces the identical result set for the same
// input streams — the equivalence tests depend on it.
type JoinPredicate interface {
	// Match reports whether tuples a (stream A) and b (stream B) join.
	Match(a, b *Tuple) bool
	// String describes the predicate.
	String() string
}

// Equijoin matches tuples with equal Key attributes, like the
// A.LocationId = B.LocationId condition of the motivating queries. With keys
// drawn uniformly from a domain of size D the join selectivity is 1/D.
type Equijoin struct{}

// Match implements JoinPredicate.
func (Equijoin) Match(a, b *Tuple) bool { return a.Key == b.Key }

// String implements JoinPredicate.
func (Equijoin) String() string { return "A.Key = B.Key" }

// KeyPartitioner is optionally implemented by join predicates whose matches
// imply equal Key attributes. For such predicates, hash-partitioning both
// streams by Key yields fully independent sub-joins: a pair split across
// partitions can never match, so a sharded executor loses no results.
// Equijoin is recognized without implementing the interface; custom
// predicates opt in by returning true.
type KeyPartitioner interface {
	// PartitionableByKey reports whether Match(a, b) implies
	// a.Key == b.Key.
	PartitionableByKey() bool
}

// PartitionableByKey reports whether the join predicate is an equijoin on
// Tuple.Key (or declares itself key-partitionable), the precondition for
// key-range sharded execution.
func PartitionableByKey(j JoinPredicate) bool {
	if kp, ok := j.(KeyPartitioner); ok {
		return kp.PartitionableByKey()
	}
	_, ok := j.(Equijoin)
	return ok
}

// BandJoin matches tuples whose Key attributes lie within a fixed distance
// of each other: |A.Key - B.Key| <= B. Band predicates cover proximity
// queries the equijoin cannot express — "sensors within one grid cell of
// each other", "trades within a price tick" — while still bounding how far
// apart a matching pair's keys can be, which is exactly the property the
// sharded executor's contiguous range partitioner exploits (replicate
// tuples within B of a range boundary to the neighboring shard and no pair
// is ever split; see internal/shard and DESIGN.md "Sharded execution:
// ownership rules"). B = 0 degenerates to the equijoin: only equal keys
// match.
type BandJoin struct {
	// B is the maximum key distance of a matching pair; negative matches
	// nothing.
	B int64
}

// Match implements JoinPredicate.
func (j BandJoin) Match(a, b *Tuple) bool {
	return j.B >= 0 && keyDistance(a.Key, b.Key) <= uint64(j.B)
}

// keyDistance returns |a - b| as an unsigned distance: exact for the full
// int64 key range, where the signed difference could overflow.
func keyDistance(a, b int64) uint64 {
	if a >= b {
		return uint64(a) - uint64(b)
	}
	return uint64(b) - uint64(a)
}

// String implements JoinPredicate.
func (j BandJoin) String() string { return fmt.Sprintf("|A.Key - B.Key| <= %d", j.B) }

// PartitionableByBand implements BandPartitioner.
func (j BandJoin) PartitionableByBand() (int64, bool) { return j.B, j.B >= 0 }

// BandPartitioner is optionally implemented by join predicates whose matches
// imply a bounded key distance. For such predicates, partitioning both
// streams into contiguous key ranges and replicating each tuple to every
// range within distance B of its key keeps all matching pairs co-located on
// the owner shard of the probing tuple's key, so a sharded executor loses no
// results (and suppresses the boundary duplicates the replication creates;
// see internal/shard). BandJoin implements the interface; custom predicates
// opt in by returning their bound and true.
type BandPartitioner interface {
	// PartitionableByBand returns (B, true) when Match(a, b) implies
	// |a.Key - b.Key| <= B, and (_, false) when the predicate offers no
	// such bound.
	PartitionableByBand() (int64, bool)
}

// PartitionableByBand reports the join predicate's band bound, if it
// declares one: the precondition for band-partitioned sharded execution.
// Key-partitionable predicates (PartitionableByKey) are the B = 0 special
// case but are handled by the cheaper hash partitioner instead.
func PartitionableByBand(j JoinPredicate) (int64, bool) {
	if bp, ok := j.(BandPartitioner); ok {
		return bp.PartitionableByBand()
	}
	return 0, false
}

// CrossProduct matches every pair. Table 2 of the paper uses Cartesian
// product semantics for its execution trace.
type CrossProduct struct{}

// Match implements JoinPredicate.
func (CrossProduct) Match(a, b *Tuple) bool { return true }

// String implements JoinPredicate.
func (CrossProduct) String() string { return "true" }

// FractionMatch matches a deterministic pseudo-random fraction S of all
// pairs: P(match) = S exactly in expectation, independently for each pair.
//
// The paper's experiments fix the join selectivity S1 at values such as
// 0.025, 0.1 and 0.4 that a uniform equijoin cannot realise (it only gives
// 1/D). FractionMatch hashes the pair of sequence numbers, so the decision is
// stable across sharing strategies and runs — a substitution documented in
// DESIGN.md ("The FractionMatch substitution") that preserves the
// nested-loop probing work exactly.
type FractionMatch struct {
	// S is the join selectivity in [0,1].
	S float64
}

// Match implements JoinPredicate.
func (f FractionMatch) Match(a, b *Tuple) bool {
	return pairUniform(a.Seq, b.Seq) < f.S
}

// String implements JoinPredicate.
func (f FractionMatch) String() string { return fmt.Sprintf("match(S1=%g)", f.S) }

// pairUniform maps an unordered pair of sequence numbers to a uniform
// float64 in [0,1) using a splitmix64-style finalizer.
func pairUniform(x, y uint64) float64 {
	return uniformOf(x*fracMulA + y*fracMulB + fracAdd)
}

// The linear pre-mix of pairUniform. The probe kernel (Probe) folds the
// fixed probing tuple's term once per scan.
const (
	fracMulA uint64 = 0x9E3779B97F4A7C15
	fracMulB uint64 = 0xBF58476D1CE4E5B9
	fracAdd  uint64 = 0x94D049BB133111EB
)

// uniformOf finalizes a pre-mixed pair word into a uniform float64 in [0,1).
func uniformOf(z uint64) float64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Predicate is a selection predicate over a single tuple, such as
// "A.Value > Threshold" in query Q2 of the paper.
type Predicate interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(t *Tuple) bool
	// Selectivity returns the fraction of generator tuples expected to
	// pass, used by the analytical cost model.
	Selectivity() float64
	// String describes the predicate.
	String() string
}

// Threshold is the predicate Value >= 1-S, which has selectivity exactly S
// for the generator's uniform [0,1) Value attribute. Threshold predicates
// are nested: a lower-selectivity threshold implies every higher one, so the
// disjunction that Section 6.1 pushes between slices is itself a Threshold.
type Threshold struct {
	// S is the selectivity in [0,1].
	S float64
}

// Eval implements Predicate.
func (p Threshold) Eval(t *Tuple) bool { return t.Value >= 1-p.S }

// Selectivity implements Predicate.
func (p Threshold) Selectivity() float64 { return p.S }

// String implements Predicate.
func (p Threshold) String() string { return fmt.Sprintf("Value >= %.3f", 1-p.S) }

// True is the always-true predicate (a query without a WHERE filter).
type True struct{}

// Eval implements Predicate.
func (True) Eval(t *Tuple) bool { return true }

// Selectivity implements Predicate.
func (True) Selectivity() float64 { return 1 }

// String implements Predicate.
func (True) String() string { return "true" }

// Or is the disjunction of predicates, used for the merged filters sigma'_i
// of Section 6.1 (cond_i OR cond_{i+1} OR ... OR cond_N).
type Or []Predicate

// Eval implements Predicate.
func (o Or) Eval(t *Tuple) bool {
	for _, p := range o {
		if p.Eval(t) {
			return true
		}
	}
	return false
}

// Selectivity implements Predicate. For nested Threshold members the
// disjunction selectivity is the maximum member selectivity; for other
// members it falls back to the union upper bound capped at 1, which the cost
// model documents as an approximation.
func (o Or) Selectivity() float64 {
	allThresh := true
	maxSel, sum := 0.0, 0.0
	for _, p := range o {
		s := p.Selectivity()
		if s > maxSel {
			maxSel = s
		}
		sum += s
		if _, ok := p.(Threshold); !ok {
			allThresh = false
		}
	}
	if allThresh {
		return maxSel
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// String implements Predicate.
func (o Or) String() string {
	s := ""
	for i, p := range o {
		if i > 0 {
			s += " OR "
		}
		s += p.String()
	}
	if s == "" {
		return "false"
	}
	return s
}
