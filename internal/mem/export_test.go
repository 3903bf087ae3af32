package mem

// Chunks returns how many chunks (sparse.ChunkLen pages each) of the page
// table exist.
func (s *Space) Chunks() (n int) {
	s.pages.Chunks(func(int, []page) { n++ })
	return n
}

// EmptyFrames drops every frame handed back so far, of every size: until the
// next PutFrame, GetFrame makes each frame anew, zero.
func EmptyFrames() {
	for i := range frames {
		for frames[i].Get() != nil {
		}
	}
}
