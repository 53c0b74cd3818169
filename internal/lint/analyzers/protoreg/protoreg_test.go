package protoreg_test

import (
	"testing"

	"gridproxy/internal/lint/analysistest"
	"gridproxy/internal/lint/analyzers/protoreg"
)

// TestProtoreg exercises both checks on a fixture modelled on
// internal/proto: a dead dispatch arm in an importing package, and the
// whole-program check for a code in the table that nothing uses.
func TestProtoreg(t *testing.T) {
	analysistest.Run(t, "testdata", protoreg.Analyzer, "protouser")
}
