// Package uctx implements user contexts (the paper's UCs): lightweight
// execution contexts with fcontext semantics that are *carried* by kernel
// tasks. A context runs only while some kernel task (a KC in paper terms)
// steps it; swapping contexts on a carrier models swap_ctx(), and a
// context saved under one carrier can be resumed by a different carrier —
// the exact capability BLT's couple()/decouple() protocol exercises.
//
// A context runs on a pooled coroutine (sim.Coro), and control transfer
// is plain call and return: Step resumes the coroutine and Yield
// suspends it. While a context runs, its carrier is suspended inside
// Step, and the context's code executes kernel operations *as the
// carrier* (c.Carrier().Getpid() etc.). When that code charges time, it
// suspends the carrier's proc from the context's own coroutine. Exactly
// one goroutine is ever active, so the engine's determinism is
// preserved.
//
// The package also reproduces fcontext's sharp edge: a context value is
// single-use. Resuming a stale snapshot — the Fig. 4 "busy stack" hazard
// that trampoline contexts exist to avoid — is detected and reported as
// ErrStaleContext instead of silently corrupting the stack.
package uctx

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// ErrStaleContext is returned by StepFrom when the snapshot does not
// match the context's current saved state: the stack has been run (and
// therefore changed) by another carrier since the snapshot was taken.
// On real hardware this is silent stack corruption; the simulation makes
// it a detectable error.
var ErrStaleContext = errors.New("uctx: stale context snapshot (stack state changed since save)")

// Kind classifies why a Step returned.
type Kind int

// Step event kinds.
const (
	// EvYield: the context parked itself via Yield and attached a tag
	// for its runtime (scheduler) to interpret.
	EvYield Kind = iota
	// EvExit: the context's body returned; the context is dead.
	EvExit
)

// Event is what a carrier receives when the context it stepped yields.
type Event struct {
	Kind Kind
	Tag  interface{} // scheduler-defined payload for EvYield
}

// Body is a context's code.
type Body func(c *Context)

// Context is one user context.
type Context struct {
	name string
	body Body

	co *sim.Coro // nil until first stepped, and again once done
	ev Event     // what the body's last Yield handed its carrier

	started bool
	running bool
	done    bool
	killed  bool
	carrier *kernel.Task

	// epoch counts saves (yields): it models the stack state. A
	// snapshot is valid only while the epoch is unchanged.
	epoch uint64

	// Stats.
	steps uint64
}

type killSignal struct{}

// New creates a context. Its body does not start until first stepped.
func New(name string, body Body) *Context {
	return &Context{name: name, body: body}
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Done reports whether the body has returned.
func (c *Context) Done() bool { return c.done }

// Running reports whether some carrier is currently executing the
// context.
func (c *Context) Running() bool { return c.running }

// Steps reports how many times the context has been stepped.
func (c *Context) Steps() uint64 { return c.steps }

// Carrier returns the kernel task currently carrying the context. Only
// meaningful from within the context's body while running.
func (c *Context) Carrier() *kernel.Task {
	if !c.running {
		panic(fmt.Sprintf("uctx: Carrier() outside a running step of %s", c.name))
	}
	return c.carrier
}

// String implements fmt.Stringer.
func (c *Context) String() string { return "uc:" + c.name }

// Step resumes the context on the given carrier until it yields or
// exits. This is swap_ctx() into the context's most recently saved
// state; Step panics if the context is already running (two carriers
// cannot execute one stack) or done.
func (c *Context) Step(carrier *kernel.Task) Event {
	if c.running {
		panic(fmt.Sprintf("uctx: Step of %s while already running on %s", c.name, c.carrier))
	}
	if c.done {
		panic(fmt.Sprintf("uctx: Step of finished context %s", c.name))
	}
	if carrier == nil {
		panic("uctx: Step with nil carrier")
	}
	c.carrier = carrier
	c.running = true
	c.steps++
	if !c.started {
		c.started = true
		c.co = sim.StartCoro((*contextRunner)(c), nil)
	}
	ev := Event{Kind: EvExit}
	if c.resume() {
		ev, c.ev = c.ev, Event{}
	}
	c.running = false
	c.carrier = nil
	return ev
}

// resume switches into the context until its body yields or finishes,
// and reports whether it yielded.
func (c *Context) resume() (yielded bool) {
	if !c.co.Resume() {
		return true
	}
	c.co = nil
	c.done = true
	return false
}

// Snapshot is a saved context value, as produced by swap_ctx's save
// half. It is valid until the context next runs.
type Snapshot struct {
	ctx   *Context
	epoch uint64
}

// SnapshotNow captures the context's current saved state. The context
// must not be running.
func (c *Context) SnapshotNow() Snapshot {
	if c.running {
		panic(fmt.Sprintf("uctx: SnapshotNow of running context %s", c.name))
	}
	return Snapshot{ctx: c, epoch: c.epoch}
}

// StepFrom resumes the context from an explicit snapshot. If the context
// has run since the snapshot was taken, the snapshot's stack image no
// longer matches reality and ErrStaleContext is returned — this is the
// decoupling hazard of the paper's Fig. 4 made visible.
func (c *Context) StepFrom(snap Snapshot, carrier *kernel.Task) (Event, error) {
	if snap.ctx != c {
		return Event{}, errors.New("uctx: snapshot belongs to a different context")
	}
	if snap.epoch != c.epoch {
		return Event{}, fmt.Errorf("%w: %s saved at epoch %d, now %d",
			ErrStaleContext, c.name, snap.epoch, c.epoch)
	}
	return c.Step(carrier), nil
}

// contextRunner is a context's coroutine entry point. A kill unwinds
// the body with killSignal, which ends here so the coroutine returns to
// the pool; any other panic propagates through Step to the carrier.
type contextRunner Context

func (r *contextRunner) RunProc(*sim.Proc) {
	c := (*Context)(r)
	defer c.endKill()
	c.body(c)
}

func (c *Context) endKill() {
	if !c.killed {
		return
	}
	if r := recover(); r != nil {
		if _, ok := r.(killSignal); !ok {
			panic(r)
		}
	}
}

// Yield parks the context, handing the tagged event to whichever carrier
// stepped it. It returns when the context is next stepped, possibly by a
// different carrier — the paper's context migration between KCs.
// Yielding bumps the stack epoch: previously taken snapshots go stale.
func (c *Context) Yield(tag interface{}) {
	c.assertInBody("Yield")
	c.epoch++
	c.ev = Event{Kind: EvYield, Tag: tag}
	c.co.Suspend()
	if c.killed {
		panic(killSignal{})
	}
}

// Kill terminates a parked context (its body unwinds). Needed to reap
// contexts when a simulation is abandoned. No-op on done contexts.
func (c *Context) Kill() {
	if c.done {
		return
	}
	if c.running {
		panic(fmt.Sprintf("uctx: Kill of running context %s", c.name))
	}
	if !c.started {
		c.done = true
		return
	}
	c.killed = true
	c.resume()
}

func (c *Context) assertInBody(op string) {
	if !c.running {
		panic(fmt.Sprintf("uctx: %s called outside the running body of %s", op, c.name))
	}
}
