//go:build !race

// Package racetag exposes, as a build-tagged constant, whether the binary was
// built with the race detector. It has two production readers. The page
// cache's refill decision (cache.PrepareRefill): a refill overwrites a buffer
// that a lock-free reader may still load from speculatively — sound, because
// the seqlock re-check discards the value, but a data race the detector would
// report — so a -race build hands the refill a fresh buffer instead, and never
// swaps in the slot's spare frame. And the
// kernel selection of internal/simd: the detector cannot see what assembly
// reads and writes, so a -race build runs the Go loops.
package racetag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
