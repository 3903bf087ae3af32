// Package argo is a Go reproduction of the Argo distributed shared memory
// system from "Turning Centralized Coherence and Distributed
// Critical-Section Execution on their Head: A New Approach for Scalable
// Distributed Shared Memory" (Kaxiras et al., HPDC 2015).
//
// Argo is a page-based, home-based software DSM with three novel parts:
//
//   - Carina, a coherence protocol for data-race-free programs built on
//     self-invalidation and self-downgrade — no invalidation messages, no
//     directory indirection, no message handlers anywhere;
//   - Pyxis, a passive classification directory that tracks the readers and
//     writers of every page with one-sided atomics and lets nodes filter
//     what they self-invalidate;
//   - Vela, the synchronization system: hierarchical barriers and
//     hierarchical queue delegation locking (HQDL) that batches critical
//     sections on one node before the lock moves.
//
// This implementation runs a whole cluster inside one process: nodes,
// page caches, directories and the protocol are real (a protocol bug
// produces wrong answers, not just wrong timings), while network and NUMA
// latencies are charged to per-thread virtual clocks by a calibrated cost
// model. See DESIGN.md for the substitution rationale and EXPERIMENTS.md
// for the reproduced evaluation.
//
// # Quick start
//
//	cfg := argo.DefaultConfig(4)            // 4 nodes × 16 cores
//	cluster := argo.MustNewCluster(cfg)
//	defer cluster.Close()                   // frames go to the next cluster
//	xs := cluster.AllocF64(1 << 20)         // global array
//	makespan := cluster.Run(15, func(t *argo.Thread) {
//	    for i := t.Rank; i < xs.Len; i += t.NT {
//	        t.SetF64(xs, i, float64(i))
//	    }
//	    t.Barrier()                         // SD → global barrier → SI
//	})
//
// All simulated time is in virtual nanoseconds; cluster.Run returns the
// makespan of the launch.
//
// # One door
//
// A Config describes a cluster completely — geometry, protocol, cost model,
// the fault plan (Config.Faults) and the observers (Config.Observers) — and
// NewCluster is the one place that builds it: the probe spine over the
// observers is handed to every layer before NewCluster returns, so any lock,
// flag or barrier built afterwards reports into them. There are two stock
// sinks: a Tracer, the log of every event that the timelines and Pictor's
// critical path read, and Metrics, the Argoscope series. The With* options
// are spellings of those fields for callers composing a stock config.
package argo

import (
	"argo/internal/core"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/trace"
	"argo/internal/vela"
)

// Re-exported core types: the Cluster/Thread API is defined in
// internal/core and aliased here so internal packages (locks, workloads)
// and external users share one set of types.
type (
	// Cluster is a simulated Argo DSM installation.
	Cluster = core.Cluster
	// Config describes a cluster (see DefaultConfig).
	Config = core.Config
	// Thread is one simulated application thread.
	Thread = core.Thread
	// F64Slice is a typed view of float64s in global memory.
	F64Slice = core.F64Slice
	// I64Slice is a typed view of int64s in global memory.
	I64Slice = core.I64Slice
	// U64Slice is a typed view of uint64s in global memory.
	U64Slice = core.U64Slice

	// FabricParams is the interconnect cost model (see WithFabricParams).
	FabricParams = fabric.Params
	// Tracer keeps the log of a run: every probe event, read by the
	// timelines and by Pictor's critical path (see WithTracer).
	Tracer = trace.Tracer
	// Metrics is the Argoscope observability suite (see WithMetrics).
	Metrics = metrics.Suite
	// FaultPlan describes a deterministic fault-injection campaign
	// (see Config.Faults, WithChaos and ParseFaultPlan).
	FaultPlan = fault.Plan
	// CrashSignal is the panic value a thread of a crash-stopped node
	// unwinds with at its barrier safe point (Cygnus). The SPMD runner
	// absorbs it; user code only sees it from custom recover hooks.
	CrashSignal = health.CrashSignal
	// MembershipTransition is one membership event — crash, excise or
	// rejoin — from Cluster.Health.History().
	MembershipTransition = health.Transition
)

// DefaultConfig returns the evaluation-baseline configuration for a cluster
// of the given number of nodes (see core.DefaultConfig).
func DefaultConfig(nodes int) Config { return core.DefaultConfig(nodes) }

// ParseFaultPlan parses a fault-plan spec like
// "drop=0.01,stall=5us,seed=42" (see fault.ParsePlan for the full syntax).
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.ParsePlan(spec) }

// NewMetrics creates an empty Argoscope suite; like the tracer, the other of
// the two stock sinks, it is attached by appending it to Config.Observers.
func NewMetrics() *Metrics { return metrics.NewSuite() }

// NewTracer creates a tracer keeping at most limit events per node (0 means
// the default cap).
func NewTracer(limit int) *Tracer { return trace.New(limit) }

// NewSpanRecorder is NewTracer: Pictor reads the tracer's log. It stays as a
// spelling only because the perf ledger's layer drivers name it.
func NewSpanRecorder(limit int) *Tracer { return NewTracer(limit) }

// Option adjusts the Config a cluster is built from; NewCluster applies
// options in order on top of its cfg argument.
type Option func(*clusterOptions)

type clusterOptions struct {
	cfg Config
	err error // a malformed WithChaos spec
}

// WithFabricParams sets Config.Net, the interconnect cost model.
func WithFabricParams(p FabricParams) Option {
	return func(o *clusterOptions) { o.cfg.Net = p }
}

// observe appends sink s to Config.Observers if there is one (ok).
func observe(s probe.Sink, ok bool) Option {
	return func(o *clusterOptions) {
		if ok {
			o.cfg.Observers = append(o.cfg.Observers, s)
		}
	}
}

// WithTracer appends t to Config.Observers (nil: nothing): t keeps every
// event of every node. Emission sites are nil-checked and off by default: a
// cluster built without observers runs bit-identically to one that never
// heard of them.
func WithTracer(t *Tracer) Option { return observe(t, t != nil) }

// WithMetrics appends ms to Config.Observers (nil: nothing): every layer of
// the cluster, and every lock, flag and barrier built over it later, feeds
// its series.
func WithMetrics(ms *Metrics) Option { return observe(ms, ms != nil) }

// WithSpans is WithTracer, kept as a spelling only because the perf ledger's
// layer drivers name it.
func WithSpans(t *Tracer) Option { return WithTracer(t) }

// WithChaos sets Config.Faults from one composable spec string, arming the
// whole chaos stack — transient Corvus faults, Cygnus crash-stops and
// crash-restarts, Cygnus II partial partitions and safe-point arming:
//
//	argo.WithChaos("crash=0.03,crashrestart=on,partition=0.05,partdur=2,crashpoints=lock+flag,seed=42")
//
// The spec syntax is fault.ParsePlan's; an empty spec is a no-op. The
// injected schedule is a pure function of the plan's seed and each
// operation's coordinates, so the same spec replays bit-identically. A
// malformed spec surfaces as an error from NewCluster (options cannot fail
// in place). Programmatic callers set the plan's fields and point the config
// at it instead:
//
//	plan := argo.FaultPlan{Seed: 42, Crash: 0.03, Partition: 0.05, PartitionDur: 2}
//	cfg.Faults = &plan
func WithChaos(spec string) Option {
	return func(o *clusterOptions) {
		if spec == "" {
			return
		}
		p, err := fault.ParsePlan(spec)
		if err != nil {
			o.err = err
			return
		}
		o.cfg.Faults = &p
	}
}

// NewCluster builds the cluster cfg describes, with the options applied to
// it in order (core.NewCluster over the result). Invalid configurations
// (non-positive node counts, negative geometry, bad fault plans,
// inconsistent fabric parameters) surface as errors; MustNewCluster is the
// only panicking entry point.
func NewCluster(cfg Config, opts ...Option) (*Cluster, error) {
	o := clusterOptions{cfg: cfg}
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	return core.NewCluster(o.cfg)
}

// MustNewCluster is NewCluster that panics on error.
func MustNewCluster(cfg Config, opts ...Option) *Cluster {
	c, err := NewCluster(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// NewFlag creates a Vela signal/wait flag homed at node home.
func NewFlag(c *Cluster, home int) *vela.Flag { return vela.NewFlag(c, home) }
