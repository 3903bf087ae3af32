package mem

// Chunks returns how many chunks (sparse.ChunkLen pages each) of the page
// table exist.
func (s *Space) Chunks() (n int) {
	s.pages.Chunks(func(int, []page) { n++ })
	return n
}
