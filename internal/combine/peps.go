package combine

import (
	"math"
	"slices"

	"hypre/internal/hypre"
)

// Variant selects between the Complete and Approximate PEPS algorithms
// (§5.5.1 / §5.5.2).
type Variant int

const (
	// Complete keeps every pair that could still beat the anchor's
	// intensity given enough extra predicates (Proposition 6's optimistic
	// bound) — no combination is lost.
	Complete Variant = iota
	// Approximate keeps only pairs whose combined intensity already exceeds
	// the anchor's, trading possible misses for speed.
	Approximate
)

// String names the variant.
func (v Variant) String() string {
	if v == Complete {
		return "complete"
	}
	return "approximate"
}

// ScoredTuple is one ranked result tuple.
type ScoredTuple struct {
	PID       int64
	Intensity float64
}

// TopKResult is the output of PEPS: up to K tuples in descending assigned
// intensity, plus work counters for the efficiency experiments.
type TopKResult struct {
	Tuples []ScoredTuple
	// CombosExpanded counts the multi-predicate combinations generated.
	CombosExpanded int
	// AnchorsUsed counts how many profile preferences seeded expansion
	// before K tuples were collected.
	AnchorsUsed int
}

// maxChainExpansions bounds DFS expansion for safety on adversarial
// profiles (the worst case is exponential, Proposition 3); the limit never
// triggers on the dissertation's workload sizes.
const maxChainExpansions = 200000

// topTracker incrementally maintains, per tuple, the best combined
// intensity among the combinations that returned it. best is dense over the
// evaluator's pid dictionary; unset entries are -1 (valid intensities are
// >= 0). Each anchor boundary ranks it with one topSelector pass.
type topTracker struct {
	best []float64
}

func newTopTracker(dict *PidDict) *topTracker {
	best := make([]float64, dict.Size())
	for i := range best {
		best[i] = -1
	}
	return &topTracker{best: best}
}

// update credits every tuple of bm with intensity if it beats the tuple's
// current best.
func (t *topTracker) update(bm *Bitmap, intensity float64) {
	bm.ForEach(func(i int) {
		if t.best[i] < intensity {
			t.best[i] = intensity
		}
	})
}

// topSelector keeps the k best tuples offered to it, ranked by (intensity
// desc, pid asc) — the order every PEPS result uses, with the pid tie-break
// matching the TA baseline's. It is a binary heap whose root is the worst
// kept tuple: a tuple that cannot enter costs one comparison, and the final
// ranking sorts k tuples. Dense-id order is not pid order, so ties at the
// k-th intensity are settled here, by pid, whatever order tuples arrive in.
type topSelector struct {
	k    int
	heap []ScoredTuple
}

// ranksBelow reports whether t ranks strictly after u.
func ranksBelow(t, u ScoredTuple) bool {
	if t.Intensity != u.Intensity {
		return t.Intensity < u.Intensity
	}
	return t.PID > u.PID
}

// reset empties the selector for a new selection of k, keeping its storage.
func (s *topSelector) reset(k int) {
	s.k = k
	s.heap = s.heap[:0]
}

// full reports whether k tuples are kept; floor is then the k-th best
// intensity.
func (s *topSelector) full() bool { return len(s.heap) >= s.k }

// floor returns the worst kept tuple's intensity; the selector must not be
// empty.
func (s *topSelector) floor() float64 { return s.heap[0].Intensity }

// offerBest offers every credited entry of a best-intensity tracker whose
// index 0 is dense id base. An entry that cannot enter is rejected on its
// intensity alone, before its pid is looked up.
func (s *topSelector) offerBest(best []float64, base int, dict *PidDict) {
	for i, v := range best {
		if v >= 0 && (!s.full() || v >= s.heap[0].Intensity) {
			s.offer(ScoredTuple{PID: dict.PID(base + i), Intensity: v})
		}
	}
}

// offer keeps t if fewer than k tuples are kept or t ranks above the worst.
func (s *topSelector) offer(t ScoredTuple) {
	h := s.heap
	if len(h) < s.k {
		h = append(h, t)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !ranksBelow(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		s.heap = h
		return
	}
	if !ranksBelow(h[0], t) {
		return
	}
	h[0] = t
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && ranksBelow(h[l], h[m]) {
			m = l
		}
		if r < len(h) && ranksBelow(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// ranked returns a copy of the kept tuples in rank order.
func (s *topSelector) ranked() []ScoredTuple {
	out := make([]ScoredTuple, len(s.heap))
	copy(out, s.heap)
	slices.SortFunc(out, func(a, b ScoredTuple) int {
		switch {
		case ranksBelow(a, b):
			return 1
		case ranksBelow(b, a):
			return -1
		}
		return 0
	})
	return out
}

// PEPS is the Practical and Efficient Preference Selection algorithm
// (Algorithm 6): using the pre-computed pair table, it expands applicable
// AND chains anchored at each profile preference in descending-intensity
// order, accumulates the resulting combinations, and returns the first k
// distinct tuples ranked by combined intensity. Single preferences
// participate as 1-predicate combinations so flooding/starvation cases
// still fill K.
//
// The DFS is incremental: each step extends the parent chain's tuple
// bitmap with exactly one word-parallel intersection (replacing the old
// Applicable + Run double evaluation, each of which recomputed the full
// conjunction from scratch), and carries the chain's Π(1−pᵢ) product so
// the combined intensity needs one multiplication per step while staying
// bit-identical to FAndAll over the member list. Tuple credits flow into
// an incrementally maintained best-intensity map; each anchor boundary
// selects the k best tuples from it with a k-bounded heap (no sort of the
// credited set), and the last such selection is the answer.
func PEPS(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant) (TopKResult, error) {
	var res TopKResult
	if k <= 0 || len(prefs) == 0 {
		return res, nil
	}

	// One relational query per predicate, then everything below is pure
	// bitmap algebra over the shared dictionary.
	bms := make([]*Bitmap, len(prefs))
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return res, err
		}
		bms[i] = b
	}

	// suffixBound[a] = f∧ over prefs[a:] — the best intensity any chain
	// anchored at or after a can reach (all intensities are >= 0 in the
	// positive profile).
	suffixBound := make([]float64, len(prefs)+1)
	prod := 1.0
	for a := len(prefs) - 1; a >= 0; a-- {
		p := prefs[a].Intensity
		if p < 0 {
			p = 0
		}
		prod *= 1 - p
		suffixBound[a] = 1 - prod
	}

	tr := newTopTracker(ev.dict)
	var top topSelector
	expansions := 0

	// Per-depth scratch bitmaps for the chain DFS (one live chain per
	// depth), shared across anchors so steady-state expansion reuses their
	// buffers (see the DFS comment for what allocates).
	var scratch []*Bitmap
	scratchAt := func(depth int) *Bitmap {
		for len(scratch) <= depth {
			scratch = append(scratch, NewBitmap())
		}
		return scratch[depth]
	}

	// Singles participate with their own intensity (f∧ of one member).
	for i := range prefs {
		if bms[i].Len() > 0 {
			tr.update(bms[i], 1-(1-prefs[i].Intensity))
		}
	}

	for a := 0; a < len(prefs); a++ {
		res.AnchorsUsed = a + 1
		anchor := prefs[a].Intensity

		// Working set: pairs anchored at a, filtered per variant.
		var seeds []PairEntry
		for _, e := range pt.CombsOfTwo(a) {
			switch variant {
			case Approximate:
				if e.Intensity <= anchor {
					continue
				}
			case Complete:
				// Keep the pair if enough remaining preferences could lift
				// it past the anchor (Proposition 6, with the weaker
				// member's intensity as the per-step gain).
				if e.Intensity <= anchor {
					need := hypre.MinPreferencesToExceed(anchor, pt.Prefs[e.J].Intensity)
					if math.IsInf(need, 1) || need > float64(len(prefs)-2) {
						continue
					}
				}
			}
			seeds = append(seeds, e)
		}

		// DFS expansion: a chain i1 < i2 < ... where every consecutive pair
		// is in the table and the whole conjunction stays applicable. Every
		// applicable chain credits the tracker — not just maximal ones — so
		// a tuple that drops out of a longer extension still gets credited
		// with the f∧ of exactly the preferences it matches (this is what
		// keeps PEPS's assigned intensities equal to TA's aggregates on
		// quantitative-only profiles, §7.6.3). Each frame receives the
		// parent's tuple bitmap and Π(1−pᵢ) product; extending the chain is
		// one AND and one multiply, into a per-depth scratch bitmap (one
		// live chain per depth). The AND runs in place at any span count,
		// so expansion allocates nothing in steady state — except where a
		// step meets a run container that does not cover its whole span,
		// which takes the allocating kernel (Bitmap.AndInto).
		var dfs func(last int, bm *Bitmap, depth int, prod float64) error
		dfs = func(last int, bm *Bitmap, depth int, prod float64) error {
			if expansions >= maxChainExpansions {
				return nil
			}
			expansions++
			tr.update(bm, 1-prod)
			res.CombosExpanded++
			for _, e := range pt.CombsOfTwo(last) {
				next := e.J
				child := scratchAt(depth)
				child.AndInto(bm, bms[next])
				if child.Len() == 0 {
					continue
				}
				if err := dfs(next, child, depth+1, prod*(1-prefs[next].Intensity)); err != nil {
					return err
				}
			}
			return nil
		}
		for _, e := range seeds {
			seed := scratchAt(0)
			seed.AndInto(bms[e.I], bms[e.J])
			seedProd := (1 - prefs[e.I].Intensity) * (1 - prefs[e.J].Intensity)
			if err := dfs(e.J, seed, 1, seedProd); err != nil {
				return res, err
			}
		}

		// Early exit: if k tuples are already collected and no chain
		// anchored later can beat the current k-th intensity, stop. The
		// tracker is final after the last anchor's ranking either way.
		top.reset(k)
		top.offerBest(tr.best, 0, ev.dict)
		if top.full() && a+1 < len(prefs) && suffixBound[a+1] <= top.floor() {
			break
		}
	}

	res.Tuples = top.ranked()
	return res, nil
}
