package combine

import (
	"math"
	"sync"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
)

// This file is the partition-sharded PEPS: the chain DFS distributes over
// the 64k-key container spans of the predicate bitmaps, because for any
// fixed chain its tuple set is the disjoint union of its span-restricted
// intersections. Each span runs the full anchor expansion against
// zero-copy shard views, crediting a span-local tracker; anchors are
// barriers — after each one the global k-th bound is folded across spans so
// the anchor-boundary early exit fires at exactly the same anchor as the
// serial algorithm. Within a span, a chain whose optimistic extension bound
// (the incremental k-th bound against the remaining preferences' headroom)
// cannot reach the k-th intensity proven at the last barrier is dead and is
// not expanded — strictly-below credits cannot alter the final top-k list,
// so Tuples and AnchorsUsed stay byte-identical to PEPS (the equivalence
// suite enforces it; see the cap caveat on PEPSSharded). CombosExpanded
// counts span-local expansions and the expansion safety cap applies per
// span, so those two figures are partition-granular rather than global.

// spanPEPS is one partition's private slice of the sharded DFS: shard views
// of every predicate bitmap, the span-local best-intensity tracker (dense
// ids offset by the span base), per-depth scratch bitmaps, and the local
// work counters.
type spanPEPS struct {
	base       int
	sbms       []*Bitmap
	best       []float64 // per (dense id - base); -1 = unseen
	scratch    []*Bitmap
	expansions int
	combos     int
}

func newSpanPEPS(span bitset.Span, sets []*bitset.Set, dictSize int) *spanPEPS {
	base := bitset.SpanBase(span)
	width := min(bitset.SpanWidth, dictSize-base)
	st := &spanPEPS{
		base: base,
		sbms: make([]*Bitmap, len(sets)),
		best: make([]float64, width),
	}
	for i, s := range sets {
		st.sbms[i] = wrapSet(s.Shard(span))
	}
	for i := range st.best {
		st.best[i] = -1
	}
	return st
}

func (st *spanPEPS) scratchAt(depth int) *Bitmap {
	for len(st.scratch) <= depth {
		st.scratch = append(st.scratch, NewBitmap())
	}
	return st.scratch[depth]
}

// update credits every span-local tuple of bm with intensity if it beats
// the tuple's current best.
func (st *spanPEPS) update(bm *Bitmap, intensity float64) {
	bm.ForEach(func(i int) {
		if k := i - st.base; st.best[k] < intensity {
			st.best[k] = intensity
		}
	})
}

// expandAnchor runs one anchor's seeds to exhaustion within this span.
// kthLB is the k-th best intensity proven at the last anchor barrier (-1
// before k tuples exist): chains whose optimistic bound cannot strictly
// reach it are dead.
func (st *spanPEPS) expandAnchor(prefs []hypre.ScoredPred, pt *PairTable,
	seeds []PairEntry, tailProd []float64, kthLB float64) {
	var dfs func(last int, bm *Bitmap, depth int, prod float64)
	dfs = func(last int, bm *Bitmap, depth int, prod float64) {
		if st.expansions >= maxChainExpansions {
			return
		}
		// Branch-dead early exit: 1 − prod·tailProd[last+1] bounds the
		// intensity of every extension of this chain (the chain itself
		// included). Strictly below the proven k-th intensity, neither the
		// chain's credits nor any descendant's can enter the final top-k
		// list — the pid tie-break at the boundary is preserved because
		// equality is not pruned.
		if kthLB >= 0 && 1-prod*tailProd[last+1] < kthLB {
			return
		}
		st.expansions++
		st.update(bm, 1-prod)
		st.combos++
		for _, e := range pt.CombsOfTwo(last) {
			next := e.J
			child := st.scratchAt(depth)
			child.AndInto(bm, st.sbms[next])
			if child.Len() == 0 {
				continue
			}
			dfs(next, child, depth+1, prod*(1-prefs[next].Intensity))
		}
	}
	for _, e := range seeds {
		seed := st.scratchAt(0)
		seed.AndInto(st.sbms[e.I], st.sbms[e.J])
		seedProd := (1 - prefs[e.I].Intensity) * (1 - prefs[e.J].Intensity)
		dfs(e.J, seed, 1, seedProd)
	}
}

// PEPSSharded is PEPS fanned out over the container-span partitions of the
// profile's predicate bitmaps, ev.Workers wide. Tuples and AnchorsUsed are
// byte-identical to PEPS as long as the maxChainExpansions safety cap does
// not bind: the cap is enforced per span here (and dead branches consume
// none of it), so an adversarial profile that trips the serial cap gets
// MORE complete results from the sharded run, not the same truncation.
// CombosExpanded tallies span-local expansions (a chain empty in one span
// is pruned there even when other spans expand it), so it is comparable
// only between sharded runs. Domains under 64k dense ids hold a single
// span: the run is then serial, plus the branch-dead bound — never slower
// than parity with PEPS.
func PEPSSharded(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant) (TopKResult, error) {
	var res TopKResult
	if k <= 0 || len(prefs) == 0 {
		return res, nil
	}

	bms := make([]*Bitmap, len(prefs))
	sets := make([]*bitset.Set, len(prefs))
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return res, err
		}
		bms[i] = b
		sets[i] = b.s
	}

	// suffixBound[a] = f∧ over prefs[a:], the anchor-boundary exit bound;
	// tailProd[i] = Π(1−p) over prefs[i:], the branch-dead headroom.
	suffixBound := make([]float64, len(prefs)+1)
	tailProd := make([]float64, len(prefs)+1)
	tailProd[len(prefs)] = 1
	for a := len(prefs) - 1; a >= 0; a-- {
		p := prefs[a].Intensity
		if p < 0 {
			p = 0
		}
		tailProd[a] = tailProd[a+1] * (1 - p)
		suffixBound[a] = 1 - tailProd[a]
	}

	spans := bitset.SpanUnion(sets...)
	states := make([]*spanPEPS, len(spans))
	dictSize := ev.dict.Size()
	for si, span := range spans {
		states[si] = newSpanPEPS(span, sets, dictSize)
	}
	workers := ev.workerCount(len(states))
	runSpans := func(fn func(st *spanPEPS)) {
		if workers <= 1 || len(states) <= 1 {
			for _, st := range states {
				fn(st)
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(states) {
						return
					}
					fn(states[i])
				}
			}()
		}
		wg.Wait()
	}

	// Singles participate with their own intensity, gated on the global
	// cardinality exactly like the serial pass (an empty shard view of a
	// non-empty predicate is a no-op credit).
	runSpans(func(st *spanPEPS) {
		for i := range prefs {
			if bms[i].Len() > 0 {
				st.update(st.sbms[i], 1-(1-prefs[i].Intensity))
			}
		}
	})

	var top topSelector
	kthLB := -1.0
	for a := 0; a < len(prefs); a++ {
		res.AnchorsUsed = a + 1
		anchor := prefs[a].Intensity

		// Working set: pairs anchored at a, filtered per variant — global
		// state, shared read-only by every span.
		var seeds []PairEntry
		for _, e := range pt.CombsOfTwo(a) {
			switch variant {
			case Approximate:
				if e.Intensity <= anchor {
					continue
				}
			case Complete:
				if e.Intensity <= anchor {
					need := hypre.MinPreferencesToExceed(anchor, pt.Prefs[e.J].Intensity)
					if math.IsInf(need, 1) || need > float64(len(prefs)-2) {
						continue
					}
				}
			}
			seeds = append(seeds, e)
		}

		runSpans(func(st *spanPEPS) {
			st.expandAnchor(prefs, pt, seeds, tailProd, kthLB)
		})

		// Anchor barrier: rank across every span tracker (span credits are
		// disjoint, so this is the serial tracker's ranking), fold the global
		// k-th bound, and exit exactly when the serial tracker would. The
		// trackers are final after the last anchor's ranking either way.
		top.reset(k)
		for _, st := range states {
			top.offerBest(st.best, st.base, ev.dict)
		}
		if top.full() {
			kthLB = top.floor()
			if a+1 < len(prefs) && suffixBound[a+1] <= kthLB {
				break
			}
		}
	}

	for _, st := range states {
		res.CombosExpanded += st.combos
	}
	res.Tuples = top.ranked()
	return res, nil
}
