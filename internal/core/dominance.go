package core

import (
	"sort"

	"repro/internal/radio"
	"repro/internal/stats"
)

// Dominance analysis (§4.2.1): a zone is persistently dominated by a
// network when the dominant network's worst tail is still better than every
// other network's best tail — for "higher is better" metrics, the 5th
// percentile of the best exceeds the 95th percentile of the others; for
// latencies the comparison flips. Persistent dominance is what makes
// infrequent WiScape measurements actionable for multi-network clients.

// DominantNetwork returns the persistently dominant network among the
// per-network sample sets, or ok=false when no network dominates. Networks
// with fewer than minSamples samples are ignored; fewer than two qualifying
// networks means no dominance can be declared.
func DominantNetwork(byNet map[radio.NetworkID][]float64, lowerIsBetter bool, minSamples int) (radio.NetworkID, bool) {
	type cand struct {
		net  radio.NetworkID
		p5   float64
		p95  float64
		mean float64
	}
	var cands []cand
	for net, vals := range byNet {
		if len(vals) < minSamples {
			continue
		}
		cands = append(cands, cand{
			net:  net,
			p5:   stats.Percentile(vals, 5),
			p95:  stats.Percentile(vals, 95),
			mean: stats.Mean(vals),
		})
	}
	if len(cands) < 2 {
		return "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		if lowerIsBetter {
			return cands[i].mean < cands[j].mean
		}
		return cands[i].mean > cands[j].mean
	})
	best := cands[0]
	for _, other := range cands[1:] {
		if lowerIsBetter {
			// Best network's 95th percentile (its worst latencies) must beat
			// the others' 5th percentile (their best latencies).
			if best.p95 >= other.p5 {
				return "", false
			}
		} else {
			// Best network's 5th percentile must beat the others' 95th.
			if best.p5 <= other.p95 {
				return "", false
			}
		}
	}
	return best.net, true
}
