package coherence

import (
	"sync/atomic"
	"testing"
)

// countRefillCopies counts, until t ends, the pages line fetches copy from
// home.
func countRefillCopies(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	refillCopies = &n
	t.Cleanup(func() { refillCopies = nil })
	return &n
}
