"""The consistency checker itself: it must accept legal histories and
reject each class of violation with a useful message."""

import math
import random

import pytest

from repro.core.history import (
    ConsistencyError,
    History,
    OpRecord,
    check_epoch_uniqueness,
    check_one_copy_serializability,
    replay,
)
from repro.core.messages import ReadResult, WriteResult


def add_write(history, op_id, start, end, version, updates):
    record = history.start("write", op_id, "c", start, updates=updates)
    history.finish(record, end, WriteResult(True, version=version))
    return record


def add_read(history, op_id, start, end, version, value):
    record = history.start("read", op_id, "c", start)
    history.finish(record, end,
                   ReadResult(True, value=value, version=version))
    return record


class TestReplay:
    def test_replay_applies_partial_updates_in_order(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_write(history, "w2", 2, 3, 2, {"b": 2})
        add_write(history, "w3", 4, 5, 3, {"a": 9})
        writes = history.committed_writes()
        assert replay(writes, 0) == {}
        assert replay(writes, 1) == {"a": 1}
        assert replay(writes, 2) == {"a": 1, "b": 2}
        assert replay(writes, 3) == {"a": 9, "b": 2}

    def test_replay_with_initial_value(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        assert replay(history.committed_writes(), 1, {"z": 0}) == \
            {"a": 1, "z": 0}


class TestAccepts:
    def test_empty_history(self):
        assert check_one_copy_serializability(History())["writes"] == 0

    def test_serial_history(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_read(history, "r1", 2, 3, 1, {"a": 1})
        add_write(history, "w2", 4, 5, 2, {"a": 2})
        add_read(history, "r2", 6, 7, 2, {"a": 2})
        stats = check_one_copy_serializability(history)
        assert stats == {"writes": 2, "reads": 2, "degraded": 0,
                         "failed": 0, "max_version": 2}

    def test_concurrent_read_may_see_either_side(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_write(history, "w2", 2, 6, 2, {"a": 2})
        # read overlaps w2: both v1 and v2 are legal outcomes
        add_read(history, "r1", 3, 5, 1, {"a": 1})
        add_read(history, "r2", 3, 5, 2, {"a": 2})
        check_one_copy_serializability(history)

    def test_failed_operations_ignored(self):
        history = History()
        record = history.start("write", "w1", "c", 0, updates={"a": 1})
        history.finish(record, 1, WriteResult(False, case="no-quorum"))
        stats = check_one_copy_serializability(history)
        assert stats["failed"] == 1 and stats["writes"] == 0


class TestRejects:
    def test_duplicate_versions(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_write(history, "w2", 2, 3, 1, {"a": 2})
        with pytest.raises(ConsistencyError, match="duplicate"):
            check_one_copy_serializability(history)

    def test_version_order_contradicts_real_time(self):
        history = History()
        add_write(history, "w1", 0, 1, 2, {"a": 1})   # v2 finished first...
        add_write(history, "w2", 5, 6, 1, {"a": 2})   # ...but v1 started later
        with pytest.raises(ConsistencyError, match="finished at"):
            check_one_copy_serializability(history)

    def test_read_with_wrong_value(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_read(history, "r1", 2, 3, 1, {"a": 999})
        with pytest.raises(ConsistencyError, match="replay gives"):
            check_one_copy_serializability(history)

    def test_stale_read(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_write(history, "w2", 2, 3, 2, {"a": 2})
        add_read(history, "r1", 5, 6, 1, {"a": 1})  # w2 ended before r1
        with pytest.raises(ConsistencyError, match="stale read"):
            check_one_copy_serializability(history)

    def test_read_from_the_future(self):
        history = History()
        add_write(history, "w1", 0, 1, 1, {"a": 1})
        add_read(history, "r1", 2, 3, 2, {"a": 2})   # v2 doesn't exist yet
        add_write(history, "w2", 5, 6, 2, {"a": 2})
        with pytest.raises(ConsistencyError, match="future"):
            check_one_copy_serializability(history)

    def test_read_without_version(self):
        history = History()
        record = history.start("read", "r1", "c", 0)
        history.finish(record, 1, ReadResult(True, value={}, version=None))
        with pytest.raises(ConsistencyError, match="no version"):
            check_one_copy_serializability(history)


class _FakeServer:
    def __init__(self, name, epoch_list, epoch_number):
        self.name = name
        from repro.core.state import ReplicaState
        self.state = ReplicaState(epoch_list=tuple(epoch_list),
                                  epoch_number=epoch_number)


class TestEpochUniqueness:
    def test_accepts_consistent_epochs(self):
        servers = [_FakeServer("a", ("a", "b"), 1),
                   _FakeServer("b", ("a", "b"), 1)]
        check_epoch_uniqueness(servers)

    def test_rejects_diverging_lists_for_same_number(self):
        servers = [_FakeServer("a", ("a", "b"), 1),
                   _FakeServer("c", ("a", "c"), 1)]
        with pytest.raises(ConsistencyError, match="two lists"):
            check_epoch_uniqueness(servers)

    def test_rejects_non_member_storing_epoch(self):
        servers = [_FakeServer("z", ("a", "b"), 1)]
        with pytest.raises(ConsistencyError, match="not a member"):
            check_epoch_uniqueness(servers)


def reference_check(history, initial_value=None):
    """The checker's earlier O(reads x writes) form, kept as an oracle: it
    replays every write and scans them twice for each read."""
    writes = history.committed_writes()
    versions = [w.version for w in writes]
    if len(set(versions)) != len(versions):
        dupes = sorted(v for v in set(versions) if versions.count(v) > 1)
        raise ConsistencyError(f"duplicate write versions: {dupes}")
    if any(v is None or v < 1 for v in versions):
        raise ConsistencyError(f"bad write versions: {versions}")
    for earlier, later in zip(writes, writes[1:]):
        if later.end is not None and earlier.start is not None:
            if later.end < earlier.start:
                raise ConsistencyError(
                    f"write {later.op_id} (v{later.version}) finished at "
                    f"{later.end} before write {earlier.op_id} "
                    f"(v{earlier.version}) started at {earlier.start}")
    for read in history.successful_reads():
        version = read.version
        if version is None or version < 0:
            raise ConsistencyError(f"read {read.op_id} has no version")
        expected = replay(writes, version, initial_value)
        if read.value != expected:
            raise ConsistencyError(
                f"read {read.op_id} at v{version} returned {read.value!r}, "
                f"replay gives {expected!r}")
        must_include = max((w.version for w in writes
                            if w.end is not None and w.end <= read.start),
                           default=0)
        if version < must_include:
            raise ConsistencyError(
                f"stale read {read.op_id}: returned v{version} but "
                f"v{must_include} committed before it started")
        may_include = max((w.version for w in writes
                           if w.start <= (read.end or float("inf"))),
                          default=0)
        if version > may_include:
            raise ConsistencyError(
                f"read {read.op_id} returned v{version} from the future "
                f"(latest overlapping write is v{may_include})")
    for read in history.degraded_reads():
        version = read.version
        if version is None or version < 0:
            raise ConsistencyError(f"degraded read {read.op_id} has no version")
        expected = replay(writes, version, initial_value)
        if read.value != expected:
            raise ConsistencyError(
                f"degraded read {read.op_id} at v{version} returned "
                f"{read.value!r}, replay gives {expected!r}")
        may_include = max((w.version for w in writes
                           if w.start <= (read.end or float("inf"))),
                          default=0)
        if version > may_include:
            raise ConsistencyError(
                f"degraded read {read.op_id} returned v{version} from the "
                f"future (latest overlapping write is v{may_include})")
    return {
        "writes": len(writes),
        "reads": len(history.successful_reads()),
        "degraded": len(history.degraded_reads()),
        "failed": len(history.failed_operations()),
        "max_version": versions[-1] if versions else 0,
    }


#: op boundaries fall on this grid, so histories are full of timestamp ties
TICK = 0.5


def random_valid_history(rng, n_ops, initial_value):
    """A linearizable history: every op takes effect at one instant inside
    [start, end]; writes get versions in that order, reads see the prefix.
    Boundaries are rounded outwards to the ``TICK`` grid, which keeps the
    history legal while making ties common.  Includes failed ops,
    unacknowledged committed writes (``end`` None), degraded reads at any
    non-future version, and times at 0."""
    points = sorted(rng.uniform(0, 50) for _ in range(n_ops))
    history = History()
    versions = 0
    for point in points:
        kind = rng.choice(("write", "write", "read", "read", "read-degraded",
                           "failed"))
        start = TICK * math.floor(max(0.0, point - rng.uniform(0, 1.5)) / TICK)
        end = TICK * math.ceil((point + rng.uniform(0, 1.5)) / TICK)
        if rng.random() < 0.05:
            start = 0.0
        if kind == "write":
            versions += 1
            updates = {f"f{rng.randrange(6)}": rng.randrange(100)
                       for _ in range(rng.randint(1, 3))}
            record = history.start("write", f"w{len(history)}", "c", start,
                                   updates=updates)
            if rng.random() < 0.1:
                record.ok, record.version = True, versions
            else:
                history.finish(record, end,
                               WriteResult(True, version=versions))
        elif kind == "failed":
            record = history.start("write", f"x{len(history)}", "c", start,
                                   updates={"f0": -1})
            history.finish(record, end, WriteResult(False, case="no-quorum"))
        else:
            version = (versions if kind == "read"
                       else rng.randint(0, versions))
            record = history.start(kind, f"r{len(history)}", "c", start)
            history.finish(record, end, ReadResult(
                True, value=replay(history.committed_writes(), version,
                                   initial_value),
                version=version))
    return history


def shifted(rng, history, time):
    """A new timestamp for a mutation: another op's boundary (a tie), 0,
    or *time* moved by a few ticks."""
    boundaries = [t for op in history.operations for t in (op.start, op.end)
                  if t is not None]
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(boundaries)
    if roll < 0.4:
        return 0.0
    return max(0.0, time + TICK * rng.randint(-20, 20))


def mutate(rng, history, initial_value):
    """Change one read's value, version or timestamp, or one write's
    timestamp, in place."""
    reads = [op for op in history.operations
             if op.kind in ("read", "read-degraded") and op.ok]
    writes = [op for op in history.operations if op.kind == "write" and op.ok]
    choice = rng.choice(("value", "version", "read-time", "write-time"))
    if choice == "write-time" and writes:
        write = rng.choice(writes)
        if write.end is not None and rng.random() < 0.5:
            write.end = shifted(rng, history, write.end)
        else:
            write.start = shifted(rng, history, write.start)
        return
    if not reads:
        return
    read = rng.choice(reads)
    if choice == "value":
        value = dict(read.value)
        value[f"f{rng.randrange(6)}"] = rng.randrange(100)
        read.value = value
    elif choice == "version":
        read.version = max(0, read.version + rng.choice((-2, -1, 1, 2)))
        if rng.random() < 0.5:  # keep the value consistent: a freshness bug
            read.value = replay(history.committed_writes(), read.version,
                                initial_value)
    elif rng.random() < 0.5:
        read.start = shifted(rng, history, read.start)
    else:
        read.end = shifted(rng, history, read.end)


def outcome(check, history, initial_value):
    try:
        return check(history, initial_value)
    except ConsistencyError as exc:
        return f"ConsistencyError: {exc}"


class TestAgainstReference:
    """The linear checker reports what the quadratic one did."""

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_histories_accepted_alike(self, seed):
        rng = random.Random(seed)
        initial = {"f0": 0} if seed % 2 else None
        history = random_valid_history(rng, rng.randint(0, 80), initial)
        assert outcome(reference_check, history, initial) == \
            outcome(check_one_copy_serializability, history, initial)
        check_one_copy_serializability(history, initial)

    @pytest.mark.parametrize("seed", range(200))
    def test_mutated_histories_give_the_same_witness(self, seed):
        rng = random.Random(10_000 + seed)
        initial = {"f0": 0} if seed % 2 else None
        history = random_valid_history(rng, rng.randint(1, 60), initial)
        mutate(rng, history, initial)
        assert outcome(check_one_copy_serializability, history, initial) == \
            outcome(reference_check, history, initial)

    def test_mutations_are_caught(self):
        # the cross-check means something only if mutations do fail
        caught = 0
        for seed in range(200):
            rng = random.Random(10_000 + seed)
            initial = {"f0": 0} if seed % 2 else None
            history = random_valid_history(rng, rng.randint(1, 60), initial)
            mutate(rng, history, initial)
            caught += isinstance(
                outcome(check_one_copy_serializability, history, initial),
                str)
        assert caught > 60
