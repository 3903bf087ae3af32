package directory

// Chunks returns how many chunks (sparse.ChunkLen pages each) of the home
// truth and of node's directory cache exist.
func (d *Directory) Chunks(node int) (home, cached int) {
	d.entries.Chunks(func(int, []Entry) { home++ })
	d.caches[node].Chunks(func(int, []Entry) { cached++ })
	return home, cached
}
