"""The shared 2PC participant's poll locking (multi-item and shard hosts).

An ``*-op-release`` from a coordinator that has already decided can
overtake the same operation's write poll while that poll is still queued
on the resource lock.  The release must still win: the queued request
is withdrawn, and a grant that already fired is relinquished instead of
being custodied until ``lock_lease`` expires.
"""

from __future__ import annotations

import pytest

from repro.core.messages import BUSY
from repro.core.multistore import MultiItemStore
from repro.shard import ShardedStore

OP = "coord:op1"


def _multi_item():
    store = MultiItemStore.create(9, 2, seed=1)
    return store.env, store.servers["n00"], "item0", ("item0", OP)


def _sharded():
    store = ShardedStore.create(5, n_shards=16, seed=1)
    shard = store.map.shard_of("alpha")
    host = store.hosts[store.map.replicas(shard)[0]]
    return store.env, host, (shard, "alpha"), (shard, "alpha", OP)


HOSTS = pytest.mark.parametrize("make", [_multi_item, _sharded],
                                ids=["MultiReplicaServer", "ShardHost"])


def _queued_poll(make):
    """A write poll for OP queued behind a blocker on its resource."""
    env, host, resource, args = make()
    host._lock(resource).acquire("blocker")
    poll = host.node.spawn(host._on_write_request("coord", args))
    env.run(until=env.now + 0.01)
    assert poll.is_alive and not host._lock(resource).held_by(OP)
    return env, host, resource, args, poll


def _assert_not_custodied(env, host, resource, poll):
    # well inside lock_lease: the lease reaper has not had its turn
    env.run(until=env.now + host.config.lock_wait + 0.1)
    assert env.now < host.config.lock_lease
    assert not poll.is_alive and poll.value is BUSY
    assert OP not in host._op_locks
    assert not host._lock(resource).held_by(OP)
    assert host._lock(resource).idle


@HOSTS
def test_release_overtaking_a_queued_poll_withdraws_it(make):
    env, host, resource, _args, poll = _queued_poll(make)
    assert host._on_op_release("coord", OP) == "ok"
    host._lock(resource).release("blocker")
    _assert_not_custodied(env, host, resource, poll)


@HOSTS
def test_release_after_the_grant_fired_relinquishes_it(make):
    env, host, resource, _args, poll = _queued_poll(make)
    # the grant fires, but the poll has not resumed when the release lands
    host._lock(resource).release("blocker")
    assert host._lock(resource).held_by(OP)
    assert host._on_op_release("coord", OP) == "ok"
    _assert_not_custodied(env, host, resource, poll)


@HOSTS
def test_duplicate_poll_while_queued_answers_busy(make):
    env, host, resource, args, poll = _queued_poll(make)
    duplicate = host.node.spawn(host._on_write_request("coord", args))
    env.run(until=env.now + 0.01)
    assert not duplicate.is_alive and duplicate.value is BUSY
    host._lock(resource).release("blocker")
    env.run(until=env.now + 0.01)
    assert not poll.is_alive and poll.value is not BUSY
    assert OP in host._op_locks
