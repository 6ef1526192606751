package dcache

import "sort"

// CoverageCurve computes Figure 12's offline analysis: given
// per-page access counts, the minimum ideal cache size (in bytes,
// pageBytes pages) needed to capture each fraction of total accesses,
// assuming a perfect predictor and ideal replacement (§6.7).
func CoverageCurve(counts map[uint64]uint64, pageBytes int, fractions []float64) []int64 {
	tot := uint64(0)
	sorted := make([]uint64, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
		tot += c
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })

	out := make([]int64, len(fractions))
	cum := uint64(0)
	pageN := 0
	for i, f := range fractions {
		want := uint64(f * float64(tot))
		for cum < want && pageN < len(sorted) {
			cum += sorted[pageN]
			pageN++
		}
		out[i] = int64(pageN) * int64(pageBytes)
	}
	return out
}
