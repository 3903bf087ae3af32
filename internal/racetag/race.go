//go:build race

package racetag

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
