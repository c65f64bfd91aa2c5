//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// Coro runs a Runner as a coroutine: Resume switches into it and
// returns when the Runner calls Suspend or returns. It is how procs
// (and the uctx package's user contexts) get a stack of their own
// without going through the Go scheduler.
//
// A Coro is built on iter.Pull, whose next/yield pair switches
// goroutines directly with the runtime's coroswitch. That switch never
// touches the scheduler's run queues, wakes no idle thread and costs a
// fraction of an unbuffered-channel round trip.
//
// coroswitch swaps the calling goroutine into the coroutine's slot and
// the slot's occupant out. Suspend may therefore be called from any
// goroutine that is currently running on the coroutine's behalf, not
// only the one iter.Pull started. A user context's body, running on the
// context's own coroutine, suspends its carrier proc this way when it
// charges time (Task.Charge → Proc.Advance): the context's goroutine
// takes the proc's slot and the proc's resumer continues. This lies
// outside iter.Pull's documented use; TestCoroSuspendFromNestedCoro
// pins it.
//
// Coroutines are pooled. An iter.Pull costs about a dozen allocations,
// several times a plain go statement, so a coroutine whose function has
// returned parks at the top of its loop and waits in a bounded,
// mutex-guarded free list for the next StartCoro, from any engine on
// any goroutine. One the pool has no room for is stopped, which ends
// its goroutine: a coroutine is never dropped while parked, because a
// parked goroutine that nothing will resume leaks forever.
//
// Every frame under a suspended coroutine stays on its goroutine's
// stack while it sleeps, and the collector unwinds each one in every
// cycle. The coroutine's own base is two frames (iter.Pull's and
// loop, which calls the Runner directly), and the sim and kernel keep
// formatted panics, traces and probe fires off a task's path. A task
// that parks in a futex wait then fits the runtime's 2 KiB starting
// stack: it never pays a stack copy, and the runtime's adaptive
// starting size, which follows the average scanned stack, stays at
// 2 KiB instead of flipping with the timing of each collection.
type Coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	run  Runner // nil tells a parked loop to return (stop)
	p    *Proc
	done bool // run returned; the coroutine waits at the top of its loop
}

// coroPoolCap bounds the free list. It covers a kernel's clone/join
// waves of a few hundred tasks and the procs of hundreds of back-to-back
// short simulations; a million-task wave stops what it cannot pool.
const coroPoolCap = 256

var coroPool struct {
	mu   sync.Mutex
	free []*Coro
}

// StartCoro binds r.RunProc(p) to a pooled coroutine, or a new one when
// the pool is empty. It does not start until the first Resume. p may be
// nil for a coroutine that is not a proc's (a user context's).
func StartCoro(r Runner, p *Proc) *Coro {
	var c *Coro
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		c = coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
	}
	coroPool.mu.Unlock()
	if c == nil {
		c = new(Coro)
		c.next, _ = iter.Pull(c.loop)
	}
	c.run, c.p, c.done = r, p, false
	return c
}

// loop is the coroutine's base frame: it runs one bound Runner per
// pool round and parks between rounds. Resuming it parked with no
// Runner bound ends it, which is how Resume stops a coroutine without
// keeping iter.Pull's stop function in every Coro.
func (c *Coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run.RunProc(c.p)
		c.done = true
		yield(struct{}{})
		if c.run == nil {
			return
		}
	}
}

// Resume runs the coroutine until its function suspends or returns, and
// reports whether it returned. A returned coroutine is back in the pool
// (or stopped), so the caller must drop c. A panic in the function
// propagates out of Resume to its caller; the coroutine is then finished
// and its goroutine gone.
func (c *Coro) Resume() (returned bool) {
	c.next()
	if !c.done {
		return false
	}
	c.run, c.p = nil, nil
	coroPool.mu.Lock()
	pooled := len(coroPool.free) < coroPoolCap
	if pooled {
		coroPool.free = append(coroPool.free, c)
	}
	coroPool.mu.Unlock()
	if !pooled {
		c.next()
	}
	return true
}

// Suspend returns control to the caller of the Resume that is running
// the coroutine, and returns when the coroutine is next resumed. It must
// be called on the coroutine's behalf, from its function or from code
// that function resumed.
func (c *Coro) Suspend() { c.yield(struct{}{}) }
