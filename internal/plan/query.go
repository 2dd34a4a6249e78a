// Package plan assembles executable shared query plans for a workload of
// window-join continuous queries, implementing every sharing strategy the
// paper studies:
//
//   - BuildUnshared: one independent plan per query (Figure 2).
//   - BuildPullUp: naive sharing with selection pull-up — one join with the
//     largest window plus a router (Section 3.1, Figure 3).
//   - BuildPushDown: stream partition with selection push-down — split,
//     per-partition joins, router and order-preserving union (Section 3.2,
//     Figure 4).
//   - BuildStateSlice: the paper's contribution — a chain of sliced binary
//     window joins with selections pushed between the slices (Sections 4-6,
//     Figures 10, 12, 15), for any slice-boundary assignment including the
//     Mem-Opt and CPU-Opt chains, with live slice migration (Section 5.3).
//
// All builders produce engine.Plan values that compute identical per-query
// results for the same input, differing only in memory and CPU cost — that
// equivalence is what the paper's theorems establish and what the package's
// tests verify.
package plan

import (
	"errors"
	"fmt"

	"stateslice/internal/stream"
)

// Query is one continuous window-join query over streams A and B, like
//
//	SELECT * FROM A, B WHERE <join> AND <filter(A)> WINDOW <window>
//
// following the SQL-with-window syntax of the paper's motivating example.
type Query struct {
	// Name labels the query's sink; empty defaults to Q<i>.
	Name string
	// Window is the sliding-window size applied to both streams.
	Window stream.Time
	// Filter is the selection predicate on stream A (nil or stream.True
	// for none).
	Filter stream.Predicate
	// FilterB is the selection predicate on stream B. Section 6 of the
	// paper notes that "predicates on multiple streams can be pushed
	// down similarly"; the state-slice builder implements that: lineage
	// marks are computed per stream and the inter-slice gates drop
	// useless tuples of either stream.
	FilterB stream.Predicate
}

// filterOrTrue normalises the stream-A predicate.
func (q Query) filterOrTrue() stream.Predicate {
	if q.Filter == nil {
		return stream.True{}
	}
	return q.Filter
}

// filterBOrTrue normalises the stream-B predicate.
func (q Query) filterBOrTrue() stream.Predicate {
	if q.FilterB == nil {
		return stream.True{}
	}
	return q.FilterB
}

// HasFilter reports whether the query carries a non-trivial selection on
// stream A.
func (q Query) HasFilter() bool { return !trivial(q.Filter) }

// HasFilterB reports whether the query carries a non-trivial selection on
// stream B.
func (q Query) HasFilterB() bool { return !trivial(q.FilterB) }

// Workload is a set of continuous queries sharing the same join predicate
// over the same two input streams — the sharing scenario of the paper.
type Workload struct {
	// Queries must be ordered by ascending window size (the chain order).
	// Windows may repeat.
	Queries []Query
	// Join is the common join condition.
	Join stream.JoinPredicate
}

// Validate checks the workload invariants the builders rely on.
func (w Workload) Validate() error {
	if len(w.Queries) == 0 {
		return errors.New("plan: workload has no queries")
	}
	if w.Join == nil {
		return errors.New("plan: workload has no join predicate")
	}
	if len(w.Queries) > 64 {
		return fmt.Errorf("plan: at most 64 queries per workload (lineage masks are 64-bit), got %d", len(w.Queries))
	}
	for i, q := range w.Queries {
		if q.Window <= 0 {
			return fmt.Errorf("plan: query %d has non-positive window %s", i, q.Window)
		}
		if i > 0 && q.Window < w.Queries[i-1].Window {
			return fmt.Errorf("plan: queries must be sorted by ascending window (query %d)", i)
		}
	}
	return nil
}

// MaxWindow returns the largest query window.
func (w Workload) MaxWindow() stream.Time {
	return w.Queries[len(w.Queries)-1].Window
}

// DistinctWindows returns the ascending distinct query windows — the slice
// boundaries of the Mem-Opt chain (Section 5.1).
func (w Workload) DistinctWindows() []stream.Time {
	var out []stream.Time
	for _, q := range w.Queries {
		if len(out) == 0 || q.Window != out[len(out)-1] {
			out = append(out, q.Window)
		}
	}
	return out
}

// QueryName returns the display name of query i (0-based).
func (w Workload) QueryName(i int) string {
	if n := w.Queries[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("Q%d", i+1)
}

// AnyFilter reports whether any query carries a non-trivial selection on
// either stream.
func (w Workload) AnyFilter() bool {
	for _, q := range w.Queries {
		if q.HasFilter() || q.HasFilterB() {
			return true
		}
	}
	return false
}

// ownRoster returns w with a private copy of its query slice. A chain's
// roster grows on Attach, and the replicas of a sharded plan are all built
// from one caller workload: appending into a shared backing array with spare
// capacity would race across replicas and write into the caller's slice.
func (w Workload) ownRoster() Workload {
	w.Queries = append([]Query(nil), w.Queries...)
	return w
}

// trivial reports whether a predicate is absent or always true.
func trivial(p stream.Predicate) bool {
	if p == nil {
		return true
	}
	_, ok := p.(stream.True)
	return ok
}

// implies reports whether predicate a logically implies predicate b, using
// the decidable fragments the engine works with: anything implies a trivial
// predicate, nested thresholds imply looser thresholds, and syntactically
// identical predicates imply each other.
func implies(a, b stream.Predicate) bool {
	if trivial(b) {
		return true
	}
	if trivial(a) {
		return false
	}
	ta, okA := a.(stream.Threshold)
	tb, okB := b.(stream.Threshold)
	if okA && okB {
		return ta.S <= tb.S
	}
	return a.String() == b.String()
}

// firstQueryBeyond returns the 0-based index of the first query whose window
// exceeds w, or len(queries) when none does.
func firstQueryBeyond(queries []Query, w stream.Time) int {
	for i, q := range queries {
		if q.Window > w {
			return i
		}
	}
	return len(queries)
}
