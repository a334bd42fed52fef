// Package conc abstracts the execution environment of the PRISMA data and
// control planes so the same code can run under real time (goroutines,
// sync primitives, the wall clock) or under the deterministic virtual-time
// engine in internal/sim.
//
// Every blocking operation performed by PRISMA — sleeping, locking,
// condition waits — goes through an Env. The real environment maps directly
// onto the standard library; the simulated environment maps onto sim
// processes, which lets a full multi-epoch training run execute in
// milliseconds of wall time while remaining fully reproducible.
package conc

import "time"

// Mutex is the subset of sync.Mutex semantics PRISMA relies on.
type Mutex interface {
	Lock()
	Unlock()
}

// Cond mirrors sync.Cond: Wait atomically releases the associated mutex and
// blocks; Signal/Broadcast wake waiters.
type Cond interface {
	Wait()
	Signal()
	Broadcast()
}

// WaitGroup mirrors sync.WaitGroup.
type WaitGroup interface {
	Add(delta int)
	Done()
	Wait()
}

// Env is an execution environment: a clock, a spawner, and factories for
// synchronization primitives. Implementations: Real (wall clock) and SimEnv
// (virtual time).
type Env interface {
	// Now reports time elapsed since the environment's epoch.
	Now() time.Duration
	// Sleep suspends the calling thread of execution for d.
	Sleep(d time.Duration)
	// Yield lets other runnable threads of execution run before the
	// caller continues.
	Yield()
	// Go starts fn as a new thread of execution. name is used for
	// diagnostics only.
	Go(name string, fn func())
	// NewMutex returns a new unlocked mutex.
	NewMutex() Mutex
	// NewCond returns a condition variable bound to m, which must have
	// been produced by this environment's NewMutex.
	NewCond(m Mutex) Cond
	// NewWaitGroup returns a wait group with a zero counter.
	NewWaitGroup() WaitGroup
}
