package cache

// Test-only views of the cache.

// WBDrain empties the write buffer and returns its contents in FIFO order
// (nil when empty).
func (c *Cache) WBDrain() []int {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	if c.wbLen == 0 {
		return nil
	}
	q := make([]int, c.wbLen)
	n := copy(q, c.wbRing[c.wbHead:])
	copy(q[n:], c.wbRing)
	c.wbHead, c.wbLen = 0, 0
	return q
}
