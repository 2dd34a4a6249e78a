package stream

// Probe appends to hits the positions (0 = oldest, as At takes them) of the
// stored tuples that join the probing tuple t under pred, oldest-first, and
// returns the extended slice. The probe's stream fixes the predicate's
// argument order, as everywhere in the engine: a stream-A probe evaluates
// pred.Match(t, f), a stream-B probe pred.Match(f, t).
//
// This is the nested-loop probe of the paper's cost model (Section 3): every
// stored tuple is examined, and the caller charges one comparison per tuple
// whether or not it matches. The predicate is inspected once per probe. The
// built-in predicates run as kernels over the one pointer-free column they
// read — Equijoin and BandJoin scan keys, FractionMatch scans seqs — so a
// probe never dereferences a non-matching tuple. Any other predicate falls
// back to Match over Spans. The hash index (WithIndex) is not consulted.
func (s *State) Probe(pred JoinPredicate, t *Tuple, hits []int) []int {
	if s.n == 0 {
		return hits
	}
	// The live region as two column ranges: [lo, hi) and, when the ring
	// wraps, [0, wrap), whose positions continue at hi-lo.
	lo, hi, wrap := s.head, s.head+s.n, 0
	if hi > len(s.buf) {
		hi, wrap = len(s.buf), hi&(len(s.buf)-1)
	}
	switch p := pred.(type) {
	case Equijoin:
		hits = probeEqual(s.keys[lo:hi], t.Key, 0, hits)
		hits = probeEqual(s.keys[:wrap], t.Key, hi-lo, hits)
	case BandJoin:
		if p.B < 0 {
			return hits
		}
		hits = probeBand(s.keys[lo:hi], t.Key, uint64(p.B), 0, hits)
		hits = probeBand(s.keys[:wrap], t.Key, uint64(p.B), hi-lo, hits)
	case FractionMatch:
		// pairUniform mixes x*fracMulA + y*fracMulB + fracAdd for the
		// pair (x, y) = (A.Seq, B.Seq); the probe's half of that sum is
		// fixed for the whole scan.
		base, mul := t.Seq*fracMulB+fracAdd, fracMulA
		if t.Stream == StreamA {
			base, mul = t.Seq*fracMulA+fracAdd, fracMulB
		}
		hits = probeFraction(s.seqs[lo:hi], base, mul, p.S, 0, hits)
		hits = probeFraction(s.seqs[:wrap], base, mul, p.S, hi-lo, hits)
	default:
		sa, sb := s.Spans()
		hits = probeMatch(sa, pred, t, 0, hits)
		hits = probeMatch(sb, pred, t, len(sa), hits)
	}
	return hits
}

func probeEqual(keys []int64, key int64, pos int, hits []int) []int {
	for i, k := range keys {
		if k == key {
			hits = append(hits, pos+i)
		}
	}
	return hits
}

func probeBand(keys []int64, key int64, b uint64, pos int, hits []int) []int {
	for i, k := range keys {
		if keyDistance(k, key) <= b {
			hits = append(hits, pos+i)
		}
	}
	return hits
}

func probeFraction(seqs []int64, base, mul uint64, sel float64, pos int, hits []int) []int {
	for i, q := range seqs {
		if uniformOf(base+uint64(q)*mul) < sel {
			hits = append(hits, pos+i)
		}
	}
	return hits
}

func probeMatch(span []*Tuple, pred JoinPredicate, t *Tuple, pos int, hits []int) []int {
	if t.Stream == StreamA {
		for i, f := range span {
			if pred.Match(t, f) {
				hits = append(hits, pos+i)
			}
		}
		return hits
	}
	for i, f := range span {
		if pred.Match(f, t) {
			hits = append(hits, pos+i)
		}
	}
	return hits
}
