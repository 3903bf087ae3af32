package fabric

import (
	"math/bits"

	"argo/internal/sim"
)

// Job is one SPMD launch of the message-passing and PGAS baselines: Size
// ranks placed compactly over the fabric's nodes, RanksPerNode to a node in
// rank order, and the one barrier they share.
type Job struct {
	Fab          *Fabric
	Size         int
	RanksPerNode int

	barrier *sim.Barrier
}

// NewJob places ranksPerNode ranks on every node of f.
func NewJob(f *Fabric, ranksPerNode int) Job {
	size := f.Topo.Nodes * ranksPerNode
	return Job{Fab: f, Size: size, RanksPerNode: ranksPerNode, barrier: sim.NewBarrier(size)}
}

// NodeOf returns the node rank r runs on.
func (j *Job) NodeOf(r int) int { return r / j.RanksPerNode }

// Run launches one simulated thread per rank, runs body on each with its rank
// and clock, and returns the makespan.
func (j *Job) Run(body func(rank int, p *sim.Proc)) sim.Time {
	procs := make([]*sim.Proc, j.Size)
	for i := range procs {
		procs[i] = j.Fab.Topo.NewProc(j.NodeOf(i), i%j.RanksPerNode)
	}
	return sim.NewGroup(procs).Run(body)
}

// Barrier waits until every rank has arrived and charges the caller a
// binomial dissemination barrier: a round trip per level of ⌈log₂ Size⌉.
func (j *Job) Barrier(p *sim.Proc) {
	cost := sim.Time(0)
	if j.Size > 1 {
		cost = 2 * j.Fab.P.RemoteLatency * sim.Time(bits.Len(uint(j.Size-1)))
	}
	j.barrier.Wait(p, cost)
}
