package conc

import (
	"runtime"
	"sync"
	"time"
)

// Real is an Env backed by the wall clock and the standard library's
// concurrency primitives. Its epoch is the moment NewReal was called.
type Real struct {
	epoch time.Time
	// TimeScale compresses every Sleep by the given factor (e.g. 1000
	// turns a simulated 1 s device latency into 1 ms of wall time). A
	// scale of 0 or 1 sleeps in real time. Now() is reported in scaled
	// units so measured durations stay comparable with sim runs.
	TimeScale float64
	wg        sync.WaitGroup
}

// NewReal returns a real-time environment anchored at the current instant.
func NewReal() *Real { return &Real{epoch: time.Now()} }

// NewScaledReal returns a real-time environment whose sleeps are divided by
// scale and whose clock readings are multiplied back, so code observes
// durations as if it had slept unscaled.
func NewScaledReal(scale float64) *Real {
	if scale <= 0 {
		scale = 1
	}
	return &Real{epoch: time.Now(), TimeScale: scale}
}

// Now reports (scaled) time since the environment was created.
func (r *Real) Now() time.Duration {
	d := time.Since(r.epoch)
	if r.TimeScale > 1 {
		d = time.Duration(float64(d) * r.TimeScale)
	}
	return d
}

// Sleep pauses the calling goroutine for d (divided by TimeScale, if set).
// Yield gives up the processor to other runnable goroutines.
func (r *Real) Yield() { runtime.Gosched() }

func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.TimeScale > 1 {
		d = time.Duration(float64(d) / r.TimeScale)
	}
	time.Sleep(d)
}

// Go runs fn in a new goroutine. The name is ignored in the real
// environment; it exists for parity with the simulator's diagnostics.
func (r *Real) Go(name string, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Join blocks until every goroutine started via Go has returned. It is a
// convenience for tests and daemons shutting down.
func (r *Real) Join() { r.wg.Wait() }

// NewMutex returns a *sync.Mutex.
func (r *Real) NewMutex() Mutex { return &sync.Mutex{} }

// NewCond returns a sync.Cond over the given mutex.
func (r *Real) NewCond(m Mutex) Cond { return sync.NewCond(m.(*sync.Mutex)) }

// NewWaitGroup returns a *sync.WaitGroup.
func (r *Real) NewWaitGroup() WaitGroup { return &sync.WaitGroup{} }
