package core

import (
	"github.com/ethpbs/pbslab/internal/stats"
)

// DelayReport compares mempool-to-inclusion waiting times between regular
// and sanctioned transactions. The paper's related work (Yang et al.)
// measured sanctioned transactions waiting 68% longer on average in the
// first months of PBS; the mechanism — most builders and half the relays
// filter them, so they wait for a non-filtering block — is exactly what the
// simulator wires, and this analysis re-measures it from the data.
type DelayReport struct {
	// Seconds from first observer sighting to block inclusion.
	Regular    stats.Box
	Sanctioned stats.Box
	// MeanRatio is SanctionedMean / RegularMean.
	MeanRatio float64
}
