package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestNilsafemetric(t *testing.T) {
	analysistest.Run(t, analysis.Nilsafemetric, "nilsafemetric")
}
