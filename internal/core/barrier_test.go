package core

import "testing"

func cluster(nodes int) *Cluster { return MustNewCluster(testConfig(nodes)) }

func TestBarrierCountsEpisodes(t *testing.T) {
	c := cluster(2)
	var bar *hierBarrier
	c.Run(2, func(th *Thread) {
		if th.Rank == 0 {
			bar = th.bar
		}
		th.Barrier()
		th.Barrier()
		th.Barrier()
	})
	if n := bar.episodes.Load(); n != 3 {
		t.Fatalf("episodes = %d, want 3", n)
	}
}

func TestDecayResetHappens(t *testing.T) {
	cfg := testConfig(2)
	cfg.DecayEpochs = 2
	c := MustNewCluster(cfg)
	var bar *hierBarrier
	xs := c.AllocI64(10)
	c.Run(2, func(th *Thread) {
		if th.Rank == 0 {
			bar = th.bar
		}
		for e := 0; e < 6; e++ {
			if th.Rank == 0 {
				th.SetI64(xs, 0, int64(e))
			}
			th.Barrier()
			if th.GetI64(xs, 0) != int64(e) {
				panic("decay broke coherence")
			}
			th.Barrier()
		}
	})
	if bar.resets.Load() == 0 {
		t.Fatal("decay never reset the classification")
	}
}
