"""Passive span tracing from outside the program.

:class:`Tracer` wraps each layer's public functions at run time --
nothing under ``src/`` is edited -- and records one span per call, or
per resume for generator functions (simulation processes such as
``Coordinator.write`` and the RPC handlers registered through
``RpcLayer.serve``).  A span is ``(name, start, end, parent, op)``; the
op id is the index of the client op the work was done for, carried
across the network by message id, or -1 for background work.  Spans
stay in memory (flat ``array`` columns) until :meth:`Tracer.save`.

Passivity: wrappers only read arguments and return values, never
schedule events or draw randomness, so a traced run reproduces the
untraced run's outcomes, digest and counts exactly (checked by the
harness).  Byte counts are computed here from the payloads handed to
``Network.send`` with the original ``message_size``, so they neither
depend on nor perturb the network's own accounting.  That sizing, and
the per-message counters kept with it, run inside a span of the tracer's
own layer (:data:`BOOKKEEPING`), so their cost is kept out of the self
time of every program layer.  What is left in the enclosing span is the
span machinery itself and the lock-grant and ``BUSY`` counters, a few
bytecodes each; ``trace.overhead_ratio`` bounds it.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np

from repro.core import coordinator as core_coordinator
from repro.core import epoch as core_epoch
from repro.core import propagation as core_propagation
from repro.core import twophase as core_twophase
from repro.core.messages import BUSY, Busy
from repro.coteries import planner as coteries_planner
from repro.availability import montecarlo, vectorized
from repro.shard import router as shard_router
from repro.shard import sweep as shard_sweep
from repro.sim import engine as sim_engine
from repro.sim import network as sim_network
from repro.sim import node as sim_node
from repro.sim import rpc as sim_rpc
from repro.sim import sizing as sim_sizing


#: span name of the tracer's own per-message work; its layer, ``trace``,
#: is no program layer
BOOKKEEPING = "trace:bookkeeping"


def _layer_of(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


class Tracer:
    """Span recorder plus the run-time wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.reset()

    # -- span buffer -----------------------------------------------------------
    def reset(self) -> None:
        """Drop every span and count; later spans start a fresh window."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.lock_wait = 0.0
        self.node_msgs: Counter = Counter()
        self.bytes = 0
        self._msg_op: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span; returns its index (-1 while inactive)."""
        if not self.active:
            return -1
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        """Close the span opened by :meth:`begin`."""
        if index >= 0:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    # -- wrappers ----------------------------------------------------------------
    def _call(self, fn, name: str, count: str = ""):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if count and tracer.active:
                tracer.counts[count] += 1
            index = tracer.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(index)
        traced.__wrapped__ = fn
        return traced

    def _generator_function(self, fn, name: str, count: str = ""):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if count and tracer.active:
                tracer.counts[count] += 1
            return tracer.trace_generator(fn(*args, **kwargs), nid)
        traced.__wrapped__ = fn
        return traced

    def trace_generator(self, gen, nid: int, on_return=None):
        """Wrap a generator so that each resume is one span; the op id
        current at creation is restored on every resume."""
        wrapper = self._resumes(gen, nid, self.op, on_return)
        wrapper.__name__ = getattr(gen, "__name__", wrapper.__name__)
        return wrapper

    def _resumes(self, gen, nid, op, on_return):
        value, error = None, None
        while True:
            saved, self.op = self.op, op
            index = self.begin(nid)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                self.finish(index)
                self.op = saved
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self.finish(index)
                self.op = saved
                raise
            self.finish(index)
            self.op = saved
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the process
                value, error = None, exc

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, replacement) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        for name, loaded in sorted(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            if getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point.  Stores built afterwards are
        traced (handlers are wrapped when they register)."""
        tracer = self
        env_cls, lock_cls = sim_engine.Environment, sim_engine.Lock
        self._patch(env_cls, "step",
                    self._call(env_cls.step, "sim.engine:Environment.step"))

        acquire = lock_cls.acquire
        acquire_nid = self.name_id("sim.engine:Lock.acquire")

        def traced_acquire(lock, owner, shared=False):
            index = tracer.begin(acquire_nid)
            try:
                event = acquire(lock, owner, shared)
            finally:
                tracer.finish(index)
            if tracer.active:
                tracer.counts["lock_acquires"] += 1
                asked = lock.env.now

                def granted(evt):
                    if evt.ok and tracer.active:
                        tracer.lock_wait += evt.env.now - asked
                event.callbacks.append(granted)
            return event
        self._patch(lock_cls, "acquire", traced_acquire)

        send = sim_network.Network.send
        send_nid = self.name_id("sim.network:Network.send")
        size_of = sim_sizing.message_size
        bookkeeping_nid = self.name_id(BOOKKEEPING)

        def traced_send(network, src, dst, kind, payload):
            index = tracer.begin(send_nid)
            try:
                msg_id = send(network, src, dst, kind, payload)
            finally:
                tracer.finish(index)
            if tracer.active:
                index = tracer.begin(bookkeeping_nid)
                tracer.bytes += size_of(payload)
                tracer.node_msgs[src] += 1
                tracer.node_msgs[dst] += 1
                tracer._msg_op[msg_id] = tracer.op
                tracer.finish(index)
            return msg_id
        self._patch(sim_network.Network, "send", traced_send)
        self._patch_function(sim_sizing, "message_size",
                             self._call(size_of, "sim.sizing:message_size"))

        register = sim_node.Node.register_handler

        def traced_register(node, kind, handler):
            nid = tracer.name_id(f"{_owner_layer(handler)}:"
                                 f"{_qualname(handler)}")

            def deliver(msg):
                saved = tracer.op
                tracer.op = tracer._msg_op.get(msg.msg_id, -1)
                index = tracer.begin(nid)
                try:
                    return handler(msg)
                finally:
                    tracer.finish(index)
                    tracer.op = saved
            return register(node, kind, deliver)
        self._patch(sim_node.Node, "register_handler", traced_register)

        rpc_cls = sim_rpc.RpcLayer
        for method in ("call", "multicast"):
            self._patch(rpc_cls, method, self._call(
                getattr(rpc_cls, method), f"sim.rpc:RpcLayer.{method}"))
        call_wave = self._call(rpc_cls.call_wave, "sim.rpc:RpcLayer.call_wave")

        def traced_wave(rpc, requests, *args, **kwargs):
            if tracer.active:
                tracer.counts["waves"] += 1
                tracer.counts["wave_requests"] += len(requests)
            return call_wave(rpc, requests, *args, **kwargs)
        self._patch(rpc_cls, "call_wave", traced_wave)

        serve = rpc_cls.serve

        def traced_serve(rpc, method, handler):
            nid = tracer.name_id(f"{_owner_layer(handler)}:"
                                 f"{_qualname(handler)}")
            served = f"served:{method}"

            def answered(value):
                if tracer.active and (value is BUSY
                                      or isinstance(value, Busy)):
                    tracer.counts["busy"] += 1

            def handle(src, args):
                if tracer.active:
                    tracer.counts[served] += 1
                index = tracer.begin(nid)
                try:
                    result = handler(src, args)
                finally:
                    tracer.finish(index)
                if isinstance(result, types.GeneratorType):
                    return tracer.trace_generator(result, nid, answered)
                answered(result)
                return result
            return serve(rpc, method, handle)
        self._patch(rpc_cls, "serve", traced_serve)

        for cls in (core_coordinator.Coordinator, shard_router.ShardRouter):
            for method in ("read", "write"):
                self._patch(cls, method, self._generator_function(
                    getattr(cls, method),
                    f"{_layer_of(cls.__module__)}:{cls.__name__}.{method}"))

        for module, attr, count in (
                (core_twophase, "run_transaction", "txns"),
                (core_propagation, "propagate", "propagations"),
                (core_epoch, "check_epoch", "epoch_checks"),
                (shard_sweep, "sweep_epochs", "sweeps"),
                (shard_sweep, "check_shard_epoch", "")):
            self._patch_function(module, attr, self._generator_function(
                getattr(module, attr),
                f"{_layer_of(module.__name__)}:{attr}", count))
        self._patch_function(core_twophase, "gather", self._call(
            core_twophase.gather, "core.twophase:gather"))

        self._patch_function(coteries_planner, "plan_quorum", self._call(
            coteries_planner.plan_quorum, "coteries.planner:plan_quorum",
            "plans"))

        for module, attr in (
                (montecarlo, "simulate_dynamic_availability"),
                (vectorized, "simulate_dynamic_availability_vector")):
            self._patch_function(module, attr, self._call(
                getattr(module, attr),
                f"{_layer_of(module.__name__)}:{attr}"))

    def uninstall(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------
    def arrays(self) -> dict:
        """The span columns as numpy arrays, plus each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        children = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "op": np.frombuffer(self.op_of, dtype=np.int32),
                "duration": duration, "self": duration - children}

    def self_by_layer(self, spans: dict) -> dict:
        """Host seconds of self time per layer (the span-name prefix)."""
        per_name = np.bincount(spans["name"], weights=spans["self"],
                               minlength=len(self.names))
        layers: dict = defaultdict(float)
        for nid, seconds in enumerate(per_name):
            layers[self.names[nid].split(":", 1)[0]] += float(seconds)
        return dict(layers)

    def save(self, path, spans: dict) -> None:
        """Write the spans out (compressed ``.npz``, names alongside)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=spans["name"],
            start=spans["start"], end=spans["end"], parent=spans["parent"],
            op=spans["op"])


def _qualname(fn) -> str:
    return getattr(fn, "__qualname__", type(fn).__name__)


def _owner_layer(handler) -> str:
    """The layer a handler belongs to: its bound object's module (so a
    ``ShardHost`` answering through an inherited participant method is
    ``shard.host``), else the function's own module."""
    owner = getattr(handler, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(handler, "__module__", "") or "")
    return _layer_of(module)
