package coherence

import (
	"fmt"

	"argo/internal/cache"
)

// CheckInvariants sweeps the node's cache and directory caches and verifies
// the protocol's structural invariants. It is meant for tests and for
// paranoid runs (core.Config.Paranoia wires it to every barrier episode);
// it takes line locks but charges no virtual time.
//
// The invariants checked:
//
//  1. A valid slot holds the page that maps to it (direct-mapped tag).
//  2. Dirty ⇔ twin present (the diff base exists exactly while needed).
//  3. A dirty page's node is registered as a writer at the home directory.
//  4. Any valid cached page's node is registered as a reader at the home.
//  5. The node's cached directory entry is a subset of the home truth
//     (classification only moves forward; caches may lag, never lead).
func (n *Node) CheckInvariants() error {
	var err error
	n.Cache.ForEachLine(func(l int, slots []cache.Slot) {
		if err != nil {
			return
		}
		for i := range slots {
			s := &slots[i]
			if s.Page < 0 || s.St == cache.Invalid {
				continue
			}
			if n.Cache.LineOf(s.Page) != l || s.Page%n.Cache.PagesPerLine != i {
				err = fmt.Errorf("node %d: page %d resident in wrong slot (line %d idx %d)", n.ID, s.Page, l, i)
				return
			}
			switch s.St {
			case cache.Dirty:
				if s.Twin == nil {
					err = fmt.Errorf("node %d: dirty page %d has no twin", n.ID, s.Page)
					return
				}
			case cache.Clean:
				if s.Twin != nil {
					err = fmt.Errorf("node %d: clean page %d still has a twin", n.ID, s.Page)
					return
				}
			}
			home := n.Dir.Home(s.Page)
			if !home.R.Has(n.ID) {
				err = fmt.Errorf("node %d: caches page %d without a reader registration", n.ID, s.Page)
				return
			}
			if s.St == cache.Dirty && !home.W.Has(n.ID) {
				err = fmt.Errorf("node %d: dirty page %d without a writer registration", n.ID, s.Page)
				return
			}
			cached := n.Dir.Cached(n.ID, s.Page)
			for _, pair := range [][2]uint64{
				{cached.R[0], home.R[0]}, {cached.R[1], home.R[1]},
				{cached.W[0], home.W[0]}, {cached.W[1], home.W[1]},
			} {
				if pair[0]&^pair[1] != 0 {
					err = fmt.Errorf("node %d: directory cache of page %d ahead of home truth (cached R=%v W=%v, home R=%v W=%v)",
						n.ID, s.Page, cached.R, cached.W, home.R, home.W)
					return
				}
			}
		}
	})
	return err
}

// CheckQuiesced additionally requires that no dirty pages remain — the
// post-condition of an SD fence or a full barrier.
func (n *Node) CheckQuiesced() error {
	if err := n.CheckInvariants(); err != nil {
		return err
	}
	var err error
	n.Cache.ForEachLine(func(l int, slots []cache.Slot) {
		for i := range slots {
			s := &slots[i]
			if err == nil && s.Page >= 0 && s.St == cache.Dirty {
				err = fmt.Errorf("node %d: page %d still dirty after downgrade fence", n.ID, s.Page)
			}
		}
	})
	return err
}
