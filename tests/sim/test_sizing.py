"""Message size estimation and network byte accounting."""

import pytest

from repro.sim import network as sim_network
from repro.sim.engine import Environment
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.sizing import ENVELOPE_BYTES, estimate_size, message_size
from repro.sim.trace import TraceLog


def traced_bytes(trace):
    """Byte total of a traced run: the sum over its ``send`` records."""
    return sum(rec.detail["bytes"] for rec in trace.iter_select(kind="send"))


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(None) == 8
        assert estimate_size(42) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size(True) == 8

    def test_strings_scale_with_length(self):
        assert estimate_size("abc") == 5
        assert estimate_size("x" * 100) == 102

    def test_containers_sum_elements(self):
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"k": 1}) == 8 + 3 + 8

    def test_nested_structures(self):
        payload = {"log": [(1, {"a": 1}), (2, {"b": 2})]}
        flat = estimate_size(payload)
        assert flat > estimate_size({"log": []})

    def test_dataclasses_counted_by_fields(self):
        from repro.core.messages import PropagationData
        small = PropagationData(source_version=1, log=((1, {"k": 1}),))
        big = PropagationData(source_version=1,
                              snapshot={f"k{i}": "v" * 50
                                        for i in range(20)})
        assert estimate_size(big) > estimate_size(small) * 5

    def test_message_size_adds_envelope(self):
        assert message_size(1) == ENVELOPE_BYTES + 8


class TestNetworkByteAccounting:
    def test_counters_accumulate(self):
        env = Environment()
        trace = TraceLog()
        net = Network(env, LatencyModel(0.01, 0.01), trace=trace)
        a = Node(env, net, "a")
        Node(env, net, "b")
        a.send("b", "ping", "payload")
        a.send("b", "ping", {"big": "x" * 100})
        env.run()
        assert net.messages_sent == 2
        assert traced_bytes(trace) > 2 * ENVELOPE_BYTES + 100

    def test_trace_records_bytes(self):
        env = Environment()
        trace = TraceLog()
        net = Network(env, LatencyModel(0.01, 0.01), trace=trace)
        a = Node(env, net, "a")
        Node(env, net, "b")
        a.send("b", "ping", "12345")
        env.run()
        sends = trace.select(kind="send")
        assert sends[0].detail["bytes"] == ENVELOPE_BYTES + 7


class TestLazySizing:
    """Messages are sized only while the trace is active."""

    @staticmethod
    def _two_nodes(trace):
        env = Environment()
        net = Network(env, LatencyModel(0.01, 0.01), trace=trace)
        a = Node(env, net, "a")
        Node(env, net, "b")
        return env, net, a

    def test_inactive_trace_never_sizes(self, monkeypatch):
        def refuse(payload):
            raise AssertionError("sized a message nobody reads")
        monkeypatch.setattr(sim_network, "message_size", refuse)
        trace = TraceLog(enabled=False)
        env, net, a = self._two_nodes(trace)
        assert not trace.active
        a.send("b", "ping", "payload")
        a.send("b", "ping", {"big": "x" * 100})
        env.run()
        assert net.messages_sent == 2
        assert trace.count("send") == 2
        assert len(trace) == 0

    def test_observer_sees_sizes(self):
        trace = TraceLog(enabled=False)
        env, net, a = self._two_nodes(trace)
        seen = []
        trace.subscribe(seen.append)
        assert trace.active
        payloads = ["12345", {"big": "x" * 100}]
        for payload in payloads:
            a.send("b", "ping", payload)
        env.run()
        sends = [rec for rec in seen if rec.kind == "send"]
        assert [rec.detail["bytes"] for rec in sends] == \
            [message_size(payload) for payload in payloads]
        assert trace.count("send") == net.messages_sent == 2

    def test_active_follows_enabled_and_observers(self):
        trace = TraceLog(enabled=False)
        assert not trace.active
        observer = lambda rec: None  # noqa: E731
        trace.subscribe(observer)
        assert trace.active
        trace.unsubscribe(observer)
        assert not trace.active
        assert TraceLog().active


class TestDeltaVsSnapshotBytes:
    def test_log_shipping_is_smaller_than_snapshots(self):
        # the partial-write payoff in bytes: heal a replica that missed
        # one small update to a large object
        from repro.core.store import ReplicatedStore
        store = ReplicatedStore.create(9, seed=1, trace_enabled=True)
        big_value = {f"field{i}": "x" * 80 for i in range(30)}
        store.write(big_value, via="n00")
        store.settle()
        before = traced_bytes(store.trace)
        second = store.write({"field0": "tiny"}, via="n05")
        store.settle()
        delta_bytes = traced_bytes(store.trace) - before
        # the whole object is ~30*90 bytes per copy; healing N replicas by
        # snapshot would dwarf the quorum write + delta propagation
        object_size = 30 * 90
        assert second.stale  # someone was healed
        assert delta_bytes < object_size * len(store.node_names)
