package kernel

import "errors"

// Resource-limit errors reported by the supervised admission sites. They
// model the errno a real kernel returns when an rlimit is hit, so
// callers degrade gracefully instead of growing without bound.
var (
	// ErrThreadLimit is EAGAIN from clone(2): the per-process thread cap.
	ErrThreadLimit = errors.New("kernel: thread limit reached (EAGAIN)")
	// ErrFDLimit is EMFILE from open(2): the per-process descriptor cap.
	ErrFDLimit = errors.New("kernel: file-descriptor limit reached (EMFILE)")
	// ErrTimerLimit is EAGAIN from a timed futex wait: the per-task
	// pending-timer cap.
	ErrTimerLimit = errors.New("kernel: pending-timer limit reached (EAGAIN)")
	// ErrFutexWaiterLimit is EAGAIN from futex(FUTEX_WAIT): the
	// waiters-per-word cap.
	ErrFutexWaiterLimit = errors.New("kernel: futex waiters-per-word limit reached (EAGAIN)")
)

// WaitClass says what kind of sleep a blocked task is in. The
// supervision plane uses it to build the wait-for graph: futex and join
// waits carry an edge to a possible holder, the rest are leaves.
type WaitClass uint8

// Wait classes.
const (
	WaitNone WaitClass = iota
	WaitFutex
	WaitJoin
	WaitChild
	WaitPipeRead
	WaitPipeWrite
	WaitSleep
)

// String implements fmt.Stringer.
func (c WaitClass) String() string {
	switch c {
	case WaitNone:
		return "none"
	case WaitFutex:
		return "futex"
	case WaitJoin:
		return "join"
	case WaitChild:
		return "child"
	case WaitPipeRead:
		return "pipe-read"
	case WaitPipeWrite:
		return "pipe-write"
	case WaitSleep:
		return "sleep"
	}
	return "?"
}

// Supervisor observes task lifecycle transitions and gates resource
// admission. internal/supervise implements it; the kernel only knows
// this interface (like FaultPlane) so the dependency points outward.
//
// Install before the simulation runs. With no supervisor installed every
// hook site costs one nil check and nothing else — no events are
// scheduled and no fields are written, so supervised-off runs are
// byte-identical to builds that predate the hooks.
//
// Hooks run inside the kernel's scheduling paths: they must not charge
// time, block, or call back into the kernel's scheduling entry points.
type Supervisor interface {
	// OnBlock fires after t transitions to TaskBlocked, with its wait
	// annotations (WaitClass and friends) set.
	OnBlock(t *Task)
	// OnUnblock fires when a blocked t is made runnable again (wake,
	// timeout, signal), before its wait annotations are discarded.
	OnUnblock(t *Task)
	// OnClone fires after child is created by parent (any clone path).
	OnClone(parent, child *Task)
	// OnExit fires at the start of task teardown.
	OnExit(t *Task)
	// OnTimerFired fires when a timed futex wait's timer expires
	// (whether or not the sleep is still live), balancing AdmitTimer.
	OnTimerFired(t *Task)
	// OnFutexRequeue fires when FutexRequeue transfers the still-blocked
	// sleeper t onto the wait queue of addr, after the task's wait
	// annotation has been updated — the plane must refresh its wait
	// record so futex edges in the wait-for graph follow the move.
	OnFutexRequeue(t *Task, addr uint64)
	// AdmitThread gates TryClone: non-nil (ErrThreadLimit) rejects.
	AdmitThread(parent *Task) error
	// AdmitFD gates Open: non-nil (ErrFDLimit) rejects.
	AdmitFD(t *Task) error
	// AdmitTimer gates arming a futex-wait timeout and counts it armed.
	AdmitTimer(t *Task) error
	// AdmitFutexWait gates a futex sleep given the word's current waiter
	// count.
	AdmitFutexWait(t *Task, waiters int) error
}

// SetSupervisor installs the supervision plane (nil clears it). Must be
// set before the simulation runs: the plane's watchdog schedules engine
// events, so installing it mid-run would perturb event ordering
// relative to a run that had it from the start.
func (k *Kernel) SetSupervisor(s Supervisor) { k.super = s }

// Supervisor returns the installed supervision plane, or nil.
func (k *Kernel) Supervisor() Supervisor { return k.super }

// noteWait annotates the calling task's imminent block so the
// supervision plane can classify it. A no-op without a supervisor: the
// annotations are read only by OnBlock.
func (k *Kernel) noteWait(t *Task, class WaitClass, addr uint64, target *Task) {
	if k.super == nil {
		return
	}
	t.waitClass = class
	s := t.supAnn()
	s.waitAddr, s.waitTarget = addr, target
}

// taskSup is a task's supervision annotations: the futex word or join
// target that classifies its sleep (Task.waitClass says which kind) and
// the plane's opaque per-task record. It lives outside Task because
// only supervised runs use it.
type taskSup struct {
	waitAddr   uint64
	waitTarget *Task
	tag        any
}

// supAnn returns t's annotations, allocating them on first use.
func (t *Task) supAnn() *taskSup {
	if t.sup == nil {
		t.sup = new(taskSup)
	}
	return t.sup
}

// WaitClass reports what kind of sleep the task is in (valid while
// blocked with a supervisor installed; WaitNone otherwise).
func (t *Task) WaitClass() WaitClass { return t.waitClass }

// WaitAddr reports the futex word a WaitFutex sleep is on.
func (t *Task) WaitAddr() uint64 {
	if t.sup == nil {
		return 0
	}
	return t.sup.waitAddr
}

// WaitTarget reports the task a WaitJoin sleep is joined on.
func (t *Task) WaitTarget() *Task {
	if t.sup == nil {
		return nil
	}
	return t.sup.waitTarget
}

// SetSupervisionTag attaches an opaque per-task record for the
// supervision plane (its wait-graph node); the kernel never reads it.
func (t *Task) SetSupervisionTag(v any) {
	if v == nil && t.sup == nil {
		return
	}
	t.supAnn().tag = v
}

// SupervisionTag returns the record attached by SetSupervisionTag.
func (t *Task) SupervisionTag() any {
	if t.sup == nil {
		return nil
	}
	return t.sup.tag
}

// TryClone is Clone with graceful resource-limit failure: when a
// supervisor caps per-process threads, it returns ErrThreadLimit
// instead of spawning — before any cost is charged, as a real clone(2)
// failing with EAGAIN would. Without a supervisor it never fails.
func (t *Task) TryClone(name string, flags CloneFlags, body TaskBody) (*Task, error) {
	return t.TryClonePinned(name, flags, -1, body)
}

// TryClonePinned is ClonePinned with graceful resource-limit failure.
func (t *Task) TryClonePinned(name string, flags CloneFlags, core int, body TaskBody) (*Task, error) {
	if s := t.kernel.super; s != nil {
		if err := s.AdmitThread(t); err != nil {
			return nil, err
		}
	}
	return t.ClonePinned(name, flags, core, body), nil
}
