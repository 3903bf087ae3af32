package argo

import (
	"argo/internal/locks"
	"argo/internal/mem"
)

// This file is the Pthreads-style veneer of Vela: the synchronization
// objects a data-race-free Pthreads program needs when it is recompiled
// against Argo (§3.1 — fences are implicit in the synchronization library,
// so DRF programs need no source changes), plus the delegation interface
// for programs willing to make the paper's modest source modifications.

// Mutex is a cluster-wide mutual-exclusion lock with the mandatory fence
// discipline (SI on Lock, SD on Unlock) — the drop-in replacement for a
// pthread_mutex_t.
type Mutex = locks.DSMMutex

// NewMutex creates a Mutex whose lock word is homed at node home.
func NewMutex(c *Cluster, home int) *Mutex { return locks.NewDSMMutex(c, home) }

// CohortLock is the NUMA/cluster-aware lock used as the paper's strongest
// traditional baseline: handovers prefer waiters on the holder's node, but
// every critical section still pays both fences.
type CohortLock = locks.DSMCohortLock

// NewCohortLock creates a cluster cohort lock.
func NewCohortLock(c *Cluster) *CohortLock { return locks.NewDSMCohortLock(c) }

// HQDL is Vela's hierarchical queue delegation lock: critical sections are
// delegated to a helper on the caller's node and executed in batches with
// one SI/SD pair per batch. Use Delegate for fire-and-forget sections,
// DelegateArg for fire-and-forget sections that take one argument word (a
// section built once then carries per-operation data without allocating),
// DelegateWait when the result is needed, and DelegateAsync to overlap.
type HQDL = locks.HQDLock

// NewHQDL creates a hierarchical queue delegation lock.
func NewHQDL(c *Cluster) *HQDL { return locks.NewHQDLock(c) }

// Arena is a dynamic global-memory allocator with Free, carved out of the
// cluster's address space.
type Arena = mem.Arena

// NewArena carves size bytes out of c's global memory and returns a
// first-fit allocator over them.
func NewArena(c *Cluster, size int64) *Arena { return mem.NewArena(c.Space, size) }
