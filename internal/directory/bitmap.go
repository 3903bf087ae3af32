package directory

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxNodes is the widest full-map the directory supports.
const MaxNodes = 128

// Bitmap is a full-map of node IDs (readers or writers of a page), wide
// enough for MaxNodes nodes.
type Bitmap [2]uint64

// Set marks node n in the map.
func (b *Bitmap) Set(n int) { b[n>>6] |= 1 << (uint(n) & 63) }

// unset removes node n from the map.
func (b *Bitmap) unset(n int) { b[n>>6] &^= 1 << (uint(n) & 63) }

// andNot removes every node of m from the map (dead-node scrubbing).
func (b *Bitmap) andNot(m Bitmap) { b[0] &^= m[0]; b[1] &^= m[1] }

// Has reports whether node n is in the map.
func (b Bitmap) Has(n int) bool { return b[n>>6]&(1<<(uint(n)&63)) != 0 }

// Count returns the number of nodes in the map.
func (b Bitmap) Count() int { return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1]) }

// Empty reports whether the map has no nodes.
func (b Bitmap) Empty() bool { return b[0] == 0 && b[1] == 0 }

// Only reports whether the map contains exactly node n.
func (b Bitmap) Only(n int) bool {
	var want Bitmap
	want.Set(n)
	return b == want
}

// First returns the lowest node ID in the map, or -1 if empty.
func (b Bitmap) First() int {
	if b[0] != 0 {
		return bits.TrailingZeros64(b[0])
	}
	if b[1] != 0 {
		return 64 + bits.TrailingZeros64(b[1])
	}
	return -1
}

// ForEach calls fn for every node ID in the map in ascending order.
func (b Bitmap) ForEach(fn func(n int)) {
	for w := 0; w < 2; w++ {
		v := b[w]
		for v != 0 {
			n := bits.TrailingZeros64(v)
			fn(w*64 + n)
			v &= v - 1
		}
	}
}

// String renders the map as a sorted node list, e.g. "{0,3}".
func (b Bitmap) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(n int) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", n)
	})
	sb.WriteByte('}')
	return sb.String()
}
