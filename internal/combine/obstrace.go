package combine

import (
	"hypre/internal/hypre"
	"hypre/internal/obs"
)

// PEPSTraced is PEPS under a trace span: the DFS runs inside a
// StagePEPS span and its expansion counters (anchors visited, combinations
// expanded — each one bitmap intersection) land in tr's engine counters.
// tr may be nil; the algorithm is unchanged.
func PEPSTraced(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant, tr *obs.Trace) (TopKResult, error) {
	sp := tr.StartSpan(obs.StagePEPS)
	res, err := PEPS(prefs, pt, ev, k, variant)
	tr.EndSpan(sp)
	if err == nil {
		tr.AddPEPS(int64(res.AnchorsUsed), int64(res.CombosExpanded))
		tr.AddPairs(int64(res.CombosExpanded))
	}
	return res, err
}
