"""The kernel against a dispatch-everything reference kernel.

:class:`repro.sim.engine.Environment` queues an event only once someone
waits on it: a trigger with no waiter reserves its ``(time, sequence)``
slot, and a waiter arriving before that slot comes due queues the event
there.  The reference kernel below is the straightforward design it
replaced: every trigger is queued and dispatched.  Random programs must
produce the same callback order, times, values, exceptions and final
clock on both kernels; only the number of dispatched queue entries may
differ.  A second reference lock (:class:`AnyOfLock`) keeps the timed
acquire protocol handlers used before ``Lock.acquire_within``, which
always built a timer and an ``any_of``.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, Interrupt, Lock, SimulationError


# -- the reference kernel ------------------------------------------------------

class RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value = None
        self._exception = None
        self._ok = None

    @property
    def triggered(self):
        return self._ok is not None

    @property
    def ok(self):
        return bool(self._ok)

    @property
    def value(self):
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None):
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok, self._value = True, value
        self.env._schedule(self)
        return self

    def fail(self, exception):
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok, self._exception = False, exception
        self.env._schedule(self)
        return self

    def _add_callback(self, callback):
        if self.callbacks is None:
            self.env._schedule(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def _dispatch(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class RefTimeout(RefEvent):
    def __init__(self, env, delay, value=None):
        super().__init__(env)
        self._timeout_value = value
        env._schedule(self._fire, delay)

    def _fire(self):
        if not self.triggered:
            self._ok, self._value = True, self._timeout_value
            self._dispatch()


class RefCondition(RefEvent):
    def __init__(self, env, events, need_all):
        super().__init__(env)
        self._events = list(events)
        self._need_all = need_all
        self._remaining = sum(1 for e in self._events if not e.triggered)
        failed = next((e for e in self._events
                       if e.triggered and not e.ok), None)
        if failed is not None:
            self.fail(failed._exception)
            return
        for event in self._events:
            if not event.triggered:
                event._add_callback(self._observe)
        self._check()

    def _observe(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self._remaining -= 1
        self._check()

    def _check(self):
        if self.triggered:
            return
        done = len(self._events) - self._remaining
        if (self._remaining <= 0 if self._need_all
                else done > 0 or not self._events):
            self.succeed({e: e._value for e in self._events
                          if e.triggered and e.ok})


class RefProcess(RefEvent):
    def __init__(self, env, generator):
        super().__init__(env)
        self._generator = generator
        self._target = None
        self._interrupts = []
        env._schedule(self._resume_with)

    @property
    def is_alive(self):
        return not self.triggered

    def interrupt(self, cause=None):
        if self.triggered:
            return
        self._interrupts.append(Interrupt(cause))
        self.env._schedule(self._deliver_interrupt)

    def _deliver_interrupt(self):
        if self.triggered or not self._interrupts:
            return
        interrupt = self._interrupts.pop(0)
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_with)
            except ValueError:
                pass
        self._step(lambda: self._generator.throw(interrupt))

    def _resume_with(self, event=None):
        if self.triggered:
            return
        if event is None:
            self._step(lambda: self._generator.send(None))
        elif event.ok:
            self._step(lambda: self._generator.send(event._value))
        else:
            self._step(lambda: self._generator.throw(event._exception))

    def _step(self, advance):
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            self.env._crashed.append(exc)
            return
        self._target = target
        target._add_callback(self._resume_with)


class RefLock:
    def __init__(self, env):
        self.env = env
        self._holders: dict = {}
        self._waiters: list = []

    def held_by(self, owner):
        return owner in self._holders

    def acquire(self, owner, shared=False):
        event = RefEvent(self.env)
        self._waiters.append((owner, "shared" if shared else "exclusive",
                              event))
        self._grant()
        return event

    def acquire_within(self, owner, wait, shared=False):
        # the kernel's helper, step for step
        grant = self.acquire(owner, shared=shared)
        if grant.triggered:
            yield grant
            return True
        yield self.env.any_of([grant, self.env.timeout(wait)])
        if grant.triggered:
            return True
        self.cancel(owner)
        return False

    def release(self, owner):
        self._holders.pop(owner, None)
        self._grant()

    def cancel(self, owner):
        self._waiters = [w for w in self._waiters if w[0] != owner]
        self._grant()

    def reset(self):
        self._holders.clear()
        waiters, self._waiters = self._waiters, []
        for _owner, _mode, event in waiters:
            if not event.triggered:
                event.fail(Interrupt("lock reset"))

    def _grant(self):
        while self._waiters:
            owner, mode, event = self._waiters[0]
            if self._holders and (mode == "exclusive"
                                  or "exclusive" in self._holders.values()):
                break
            self._waiters.pop(0)
            self._holders[owner] = mode
            if not event.triggered:
                event.succeed(self)


class AnyOfLock(RefLock):
    """The timed acquire as protocol handlers wrote it before the kernel
    had one: always a timer and an ``any_of``, even for a grant made on
    the spot.  The timer it leaves behind fires for nobody."""

    def acquire_within(self, owner, wait, shared=False):
        grant = self.acquire(owner, shared=shared)
        timer = self.env.timeout(wait)
        yield self.env.any_of([grant, timer])
        if grant.triggered:
            return True
        self.cancel(owner)
        return False


class RefEnvironment:
    def __init__(self, lock_class=RefLock):
        self.lock_class = lock_class
        self.now = 0.0
        self._queue: list = []
        self._sequence = 0
        self._crashed: list = []
        self.events_processed = 0

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefTimeout(self, delay, value)

    def process(self, generator):
        return RefProcess(self, generator)

    def any_of(self, events):
        return RefCondition(self, events, need_all=False)

    def all_of(self, events):
        return RefCondition(self, events, need_all=True)

    def lock(self):
        return self.lock_class(self)

    def schedule(self, callback, delay=0.0):
        self._schedule(callback, delay)

    def _schedule(self, item, delay=0.0):
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, item))

    def step(self):
        time, _seq, item = heapq.heappop(self._queue)
        self.now = time
        self.events_processed += 1
        if isinstance(item, RefEvent):
            item._dispatch()
        else:
            item()
        if self._crashed:
            raise SimulationError(repr(self._crashed[0]))

    def run(self, until=None):
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            self.step()
        if until is not None and until > self.now:
            self.now = until
        return self.now


# -- random programs -------------------------------------------------------------

N_EVENTS = 4
N_LOCKS = 2
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])   # ties are common
EVENT = st.integers(0, N_EVENTS - 1)
PROC = st.integers(0, 7)
OP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("wait"), EVENT),
    st.tuples(st.just("trigger"), EVENT, st.booleans(), st.integers(0, 9)),
    st.tuples(st.just("any"), st.lists(EVENT, max_size=3), DELAYS),
    st.tuples(st.just("all"), st.lists(EVENT, max_size=3)),
    st.tuples(st.just("lock"), st.integers(0, N_LOCKS - 1), st.booleans(),
              DELAYS, DELAYS),
    st.tuples(st.just("reset"), st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("interrupt"), PROC),
    st.tuples(st.just("join"), PROC),
    st.tuples(st.just("watch"), EVENT),
    st.tuples(st.just("watch_proc"), PROC),
)
BODY = st.lists(OP, max_size=6)
#: after a first ``run(until)``: trigger, watch or interrupt from outside
#: the kernel, or start another process
EXTERNAL = st.one_of(
    st.tuples(st.just("trigger"), EVENT, st.booleans(), st.integers(0, 9)),
    st.tuples(st.just("watch"), EVENT),
    st.tuples(st.just("watch_proc"), PROC),
    st.tuples(st.just("interrupt"), PROC),
    st.tuples(st.just("start"), BODY),
)
BODIES = st.lists(BODY, min_size=1, max_size=5)
UNTIL = st.sampled_from([0.0, 0.5, 1.0, 3.0])
PROGRAM = st.tuples(BODIES, st.one_of(UNTIL, st.none()),
                    st.lists(EXTERNAL, max_size=4))
#: the external step always happens at the same clock
TIMED_PROGRAM = st.tuples(BODIES, UNTIL, st.lists(EXTERNAL, max_size=4))


def _outcome(value: Any) -> Any:
    """A kernel-independent rendering of an event value."""
    if isinstance(value, dict):      # a condition's {event: value}
        return sorted(repr(v) for v in value.values())
    if isinstance(value, (RefLock, Lock)):
        return "lock"
    return value


def execute(env, program) -> dict:
    """Run *program* on *env*; everything observable, in order."""
    bodies, until, external = program
    log: list = []
    events = [env.event() for _ in range(N_EVENTS)]
    locks = [env.lock() for _ in range(N_LOCKS)]
    procs: list = []

    def watcher(tag):
        return lambda event: log.append((env.now, "watch", tag,
                                         event.ok, _outcome(event._value)))

    def apply(pid, index, op):
        kind = op[0]
        if kind == "trigger":
            event = events[op[1]]
            if not event.triggered:
                if op[2]:
                    event.succeed(op[3])
                else:
                    event.fail(ValueError(op[3]))
        elif kind == "watch":
            events[op[1]]._add_callback(watcher((pid, index)))
        elif kind == "watch_proc":
            procs[op[1] % len(procs)]._add_callback(watcher((pid, index)))
        elif kind == "interrupt":
            procs[op[1] % len(procs)].interrupt((pid, index))
        elif kind == "reset":
            locks[op[1]].reset()

    def body(pid, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "sleep":
                    got = yield env.timeout(op[1], value="slept")
                elif kind == "wait":
                    got = yield events[op[1]]
                elif kind == "any":
                    got = yield env.any_of(
                        [events[i] for i in op[1]]
                        + [env.timeout(op[2], value="timer")])
                elif kind == "all":
                    got = yield env.all_of([events[i] for i in op[1]])
                elif kind == "join":
                    target = procs[op[1] % len(procs)]
                    if target is procs[pid]:
                        continue
                    got = yield target
                elif kind == "lock":
                    _kind, k, shared, wait, hold = op
                    owner = (pid, index)
                    try:
                        got = yield from locks[k].acquire_within(
                            owner, wait, shared=shared)
                        if got:
                            yield env.timeout(hold)
                    finally:
                        if locks[k].held_by(owner):
                            locks[k].release(owner)
                else:
                    apply(pid, index, op)
                    got = "done"
                log.append((env.now, pid, index, kind, _outcome(got)))
            except Interrupt as exc:
                log.append((env.now, pid, index, kind, "interrupt",
                            exc.cause))
            except ValueError as exc:
                log.append((env.now, pid, index, kind, "error", exc.args))
        return pid

    def start(ops):
        procs.append(env.process(body(len(procs), ops)))

    for ops in bodies:
        start(ops)
    env.run(until=until)
    for index, op in enumerate(external):
        if op[0] == "start":
            start(op[1])
        else:
            apply("ext", index, op)
    env.run()
    return {"log": log, "now": env.now,
            "procs": [(p.is_alive, p.triggered and p.ok,
                       _outcome(p._value)) for p in procs],
            "events": [(e.triggered, e.ok) for e in events]}


class TestReferenceEquivalence:
    @given(PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_random_programs_match_the_reference(self, program):
        env = Environment()
        reference = RefEnvironment()
        assert execute(env, program) == execute(reference, program)
        assert env.events_processed <= reference.events_processed

    @given(TIMED_PROGRAM)
    @settings(max_examples=150, deadline=None)
    def test_timed_acquire_matches_the_any_of_form(self, program):
        # same log; only the clock of a drained run may differ, when the
        # any_of form drains on a lock_wait timer nobody waits for any
        # more -- so the external step happens at a run(until) clock
        ours = execute(Environment(), program)
        theirs = execute(RefEnvironment(AnyOfLock), program)
        assert ours["now"] <= theirs.pop("now")
        ours.pop("now")
        assert ours == theirs

    def test_elision_actually_happens(self):
        # a process nobody joins, an event nobody waits on, an
        # uncontended timed acquire: the reference dispatches all of them
        program = ([[("trigger", 0, True, 1), ("lock", 0, False, 1.0, 0.0)]],
                   None, [])
        env, reference = Environment(), RefEnvironment()
        assert execute(env, program) == execute(reference, program)
        assert env.events_processed < reference.events_processed


# -- targeted cases ----------------------------------------------------------------

def _both(scenario):
    """Run *scenario(env, log)* on the kernel and on the reference (with
    the ``any_of`` form of the timed acquire); returns both logs."""
    logs = []
    for env in (Environment(), RefEnvironment(AnyOfLock)):
        log: list = []
        scenario(env, log)
        env.run()
        logs.append(log)
    return logs


class TestReservedSlots:
    def test_waiter_before_slot_runs_ahead_of_later_same_time_entry(self):
        def scenario(env, log):
            def main():
                yield env.timeout(1.0)
                event = env.event()
                event.succeed("v")                       # slot reserved
                env.schedule(lambda: log.append(("later", env.now)))
                event._add_callback(
                    lambda e: log.append(("waiter", env.now, e.value)))
            env.process(main())

        ours, reference = _both(scenario)
        assert ours == reference == [("waiter", 1.0, "v"), ("later", 1.0)]

    def test_waiter_after_slot_runs_on_next_tick(self):
        def scenario(env, log):
            event = env.event()

            def trigger():
                yield env.timeout(1.0)
                event.succeed("v")                       # nobody waits

            def late():
                yield env.timeout(1.0)
                yield env.timeout(0.0)                   # past the slot
                env.schedule(lambda: log.append(("queued", env.now)))
                event._add_callback(
                    lambda e: log.append(("waiter", env.now, e.value)))
                log.append(("added", env.now))
            env.process(trigger())
            env.process(late())

        ours, reference = _both(scenario)
        assert ours == reference == [("added", 1.0), ("queued", 1.0),
                                     ("waiter", 1.0, "v")]

    def test_slot_passes_when_run_returns(self):
        env = Environment()
        event = env.event()
        event.succeed("v")
        env.run()
        log = []
        env.schedule(lambda: log.append("queued"))
        event._add_callback(lambda e: log.append("waiter"))
        env.run()
        assert log == ["queued", "waiter"]

    def test_unwaited_trigger_is_never_queued(self):
        env = Environment()
        env.event().succeed()
        env.event().fail(ValueError("nobody looks"))
        assert env.queue_size == 0
        env.run()
        assert env.events_processed == 0


class TestAcquireWithin:
    def test_uncontended_resumes_at_the_any_of_position(self):
        def scenario(env, log):
            lock = env.lock()

            def acquirer():
                env.schedule(lambda: log.append(("before", env.now)))
                ok = yield from lock.acquire_within("a", 5.0)
                log.append(("granted", env.now, ok))

            def bystander():
                yield env.timeout(0.0)
                log.append(("bystander", env.now))
            env.process(acquirer())
            env.process(bystander())

        ours, reference = _both(scenario)
        assert ours == reference
        assert [entry[0] for entry in ours] == ["before", "granted",
                                                "bystander"]

    def test_uncontended_leaves_queue_size_unchanged(self):
        env = Environment()
        lock = env.lock()
        sizes = []

        def acquirer():
            sizes.append(env.queue_size)
            ok = yield from lock.acquire_within("a", 5.0)
            sizes.append(env.queue_size)
            assert ok and lock.held_by("a")

        env.process(acquirer())
        env.run()
        assert sizes[0] == sizes[1]
        assert env.now == 0.0          # no timer was left to run out

    def test_contended_times_out_and_withdraws(self):
        def scenario(env, log):
            lock = env.lock()

            def holder():
                ok = yield from lock.acquire_within("h", 1.0)
                yield env.timeout(3.0)
                lock.release("h")
                log.append(("released", env.now, ok))

            def waiter():
                ok = yield from lock.acquire_within("w", 1.0)
                log.append(("waiter", env.now, ok, lock.held_by("w")))
            env.process(holder())
            env.process(waiter())

        ours, reference = _both(scenario)
        assert ours == reference == [("waiter", 1.0, False, False),
                                     ("released", 3.0, True)]
