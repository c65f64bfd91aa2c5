package sim

import "fmt"

type procState uint8

const (
	procReady procState = iota // has a pending resume event
	procRunning
	procParked // waiting for an explicit Unpark
	procDead
	// procKilled marks a started proc that Shutdown is resuming only so
	// that it unwinds: its suspended yield panics with ErrKilled.
	procKilled
)

func (s procState) String() string {
	switch s {
	case procReady:
		return "ready"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procDead:
		return "dead"
	case procKilled:
		return "killed"
	}
	return "unknown"
}

// Runner is the code a proc runs. Spawn wraps a plain function into one;
// a type whose value already holds the proc's state (the kernel's task)
// can be a Runner itself, so spawning needs no per-proc closure. A
// Runner with a ProcName method names its proc on demand (see
// SpawnRunner).
type Runner interface{ RunProc(p *Proc) }

// runFunc adapts a function to Runner; a func value fits in an interface
// without allocating.
type runFunc func(*Proc)

func (f runFunc) RunProc(p *Proc) { f(p) }

// procNamer is implemented by Runners that render their proc's name.
type procNamer interface{ ProcName() string }

// Proc is a simulation coroutine. A proc's code runs on a pooled
// coroutine (see Coro) that the engine resumes only while the proc holds
// the engine, so procs never truly race: exactly one proc (or the engine
// loop) executes at a time.
//
// Procs model active entities with their own control flow — in this
// repository, simulated kernel tasks (kernel contexts). Passive entities
// (queues, files, page tables) are plain data mutated by whichever proc is
// running.
type Proc struct {
	id     uint64
	name   string // rendered from run on first use when spawned unnamed
	engine *Engine
	run    Runner
	co     *Coro // nil until first resumed, and again once exited
	state  procState

	// ev is the proc's intrusive resume event. A live proc has at most
	// one pending resume (ready XOR running XOR parked), so Spawn,
	// Advance and Unpark all reuse this storage — the scheduler hot
	// path allocates nothing.
	ev event

	// Intrusive WaitQ links: wq is the queue the proc is currently
	// parked on (nil when not queued), wqPrev/wqNext its FIFO
	// neighbours. See WaitQ.
	wq             *WaitQ
	wqPrev, wqNext *Proc

	// Stats.
	wakeups  uint64
	advanced Duration
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string {
	if p.name == "" {
		if n, ok := p.run.(procNamer); ok {
			p.name = n.ProcName()
		}
	}
	return p.name
}

// ID returns the proc's unique id.
func (p *Proc) ID() uint64 { return p.id }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.engine }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("%s#%d", p.Name(), p.id) }

// Advanced reports the total virtual time this proc has consumed via
// Advance — a busy-time counter used by the power-proxy ablation.
func (p *Proc) Advanced() Duration { return p.advanced }

// Wakeups reports how many times the proc has been resumed.
func (p *Proc) Wakeups() uint64 { return p.wakeups }

// finish retires a proc that returned or unwound. kind is the trace
// verb: "exit" or "kill".
func (p *Proc) finish(kind string) {
	p.state = procDead
	p.co = nil
	delete(p.engine.procs, p.id)
	if p.engine.tracer != nil {
		p.engine.traceProc(kind, p)
	}
}

// yield gives up the engine and returns when the proc is resumed. Must
// only be called by the proc itself while running. Inside the event loop
// the yielding proc dispatches the next event itself: if that event is
// its own resume it returns at once, with no switch at all; otherwise it
// names the successor and suspends to the engine loop, which resumes
// that successor (two coroutine switches per handoff).
//
// With park set, yield first parks the proc (Park's checks, state and
// trace). Park is then a one-call wrapper the compiler inlines, which
// keeps one frame off the stack of every parked proc.
func (p *Proc) yield(park bool) {
	if park {
		p.checkRunning("Park")
		p.state = procParked
		// Tracing is gated at the call site so the untraced hot path
		// does not pay for boxing the variadic arguments.
		if p.engine.tracer != nil {
			p.engine.traceProc("park", p)
		}
	}
	e := p.engine
	if e.inLoop {
		next := e.dispatchNext()
		if next == p {
			p.wakeups++
			return
		}
		e.handoff = next
	}
	p.co.Suspend()
	if p.state == procKilled {
		p.state = procRunning
		panic(ErrKilled)
	}
}

func (p *Proc) checkRunning(op string) {
	if p.engine.current != p || p.state != procRunning {
		p.notRunning(op)
	}
}

// notRunning is checkRunning's failure. It and the engine's other
// formatted panics and traces stay out of line: a parked proc's stack
// holds the frames of every call on its path, and a varargs call's
// temporaries would widen them all (see Coro on stack depth).
//
//go:noinline
func (p *Proc) notRunning(op string) {
	panic(fmt.Sprintf("sim: %s called on proc %s which is not the running proc", op, p))
}

// Advance consumes d of virtual time: the proc is suspended and resumes
// once the clock reaches now+d. Other procs with earlier events run in
// between — this is how virtual parallelism across simulated CPU cores
// arises from a sequential engine.
//
// Fast path: when the proc's own resume would be strictly the next event
// anyway (no other event is due at or before now+d, Stop has not been
// requested, and the active Run/RunUntil limit is not crossed), the
// engine would pop it back immediately — so the clock moves forward in
// place and the schedule/dispatch round trip is skipped entirely. The
// execution order is identical to the slow path.
func (p *Proc) Advance(d Duration) {
	p.checkRunning("Advance")
	if d < 0 {
		panic("sim: negative Advance")
	}
	p.advanced += d
	e := p.engine
	at := e.now.Add(d)
	if !e.stopped && at <= e.limit {
		if next := e.peek(); next == nil || at < next.at {
			e.now = at
			p.wakeups++
			return
		}
	}
	p.state = procReady
	p.ev.at = at
	e.schedule(&p.ev)
	p.yield(false)
}

// Park suspends the proc indefinitely; it resumes only after another proc
// or a callback calls Unpark.
func (p *Proc) Park() { p.yield(true) }

// Unpark schedules a parked proc to resume after delay d. It is the
// low-level wakeup primitive; the kernel layer builds run queues and
// futexes on top of it. Calling Unpark on a proc that is not parked
// panics — higher layers are responsible for state machines that make
// wakeups race-free (the engine's determinism makes such races
// programming errors, not timing accidents).
func (p *Proc) Unpark(d Duration) {
	if p.state != procParked {
		p.badUnpark()
	}
	if d < 0 {
		d = 0
	}
	p.state = procReady
	e := p.engine
	if e.tracer != nil {
		e.traceUnpark(p, d)
	}
	p.ev.at = e.now.Add(d)
	e.schedule(&p.ev)
}

//go:noinline
func (p *Proc) badUnpark() {
	panic(fmt.Sprintf("sim: Unpark of proc %s in state %v", p, p.state))
}

// Parked reports whether the proc is currently parked.
func (p *Proc) Parked() bool { return p.state == procParked }

// Dead reports whether the proc has exited.
func (p *Proc) Dead() bool { return p.state == procDead }

// Exit terminates the proc immediately from within its own code.
func (p *Proc) Exit() {
	p.checkRunning("Exit")
	panic(ErrKilled)
}
