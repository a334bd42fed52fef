package conc

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// SimEnv adapts a sim.Simulation to the Env interface. All threads created
// through Go become simulated processes; Sleep and the synchronization
// primitives consume virtual time only.
type SimEnv struct {
	S *sim.Simulation
}

// NewSimEnv wraps an existing simulation.
func NewSimEnv(s *sim.Simulation) *SimEnv { return &SimEnv{S: s} }

// Now reports the simulation's virtual clock.
func (e *SimEnv) Now() time.Duration { return e.S.Now() }

// Sleep suspends the calling simulated process for virtual duration d. It
// must be called from a process started via Go (or sim.Spawn).
// Yield is a no-op: the simulation already runs one process at a time
// and schedules them deterministically.
func (e *SimEnv) Yield() {}

func (e *SimEnv) Sleep(d time.Duration) {
	p := e.S.Current()
	if p == nil {
		panic("conc: SimEnv.Sleep called from outside a simulated process")
	}
	p.Sleep(d)
}

// Go spawns fn as a new simulated process starting at the current instant.
func (e *SimEnv) Go(name string, fn func()) {
	e.S.Spawn(name, func(*sim.Process) { fn() })
}

// NewMutex returns a simulated mutex.
func (e *SimEnv) NewMutex() Mutex { return e.S.NewMutex() }

// NewCond returns a simulated condition variable over m, which must come
// from this environment's NewMutex.
func (e *SimEnv) NewCond(m Mutex) Cond { return e.S.NewCond(m.(*sim.Mutex)) }

// NewWaitGroup returns a simulated wait group.
func (e *SimEnv) NewWaitGroup() WaitGroup { return e.S.NewWaitGroup() }
