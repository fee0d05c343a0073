"""``lock-discipline``: acquire/discharge path analysis."""

from __future__ import annotations

from repro.lint.rules.locks import LockDisciplineRule
from tests.lint.helpers import rule_ids

RULES = [LockDisciplineRule()]
RELPATH = "core/replica.py"


def ids(src: str) -> list[str]:
    return rule_ids(src, RELPATH, rules=RULES)


def test_return_with_held_lock_fires():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n"
           "        return 'granted'\n")
    assert ids(src) == ["lock-discipline"]


def test_release_before_return_is_clean():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n"
           "        self.lock.release(op)\n"
           "        return 'done'\n")
    assert ids(src) == []


def test_try_finally_release_shields_returns():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n"
           "        try:\n"
           "            return self.compute(op)\n"
           "        finally:\n"
           "            self.lock.release(op)\n")
    assert ids(src) == []


def test_one_branch_leaking_fires():
    src = ("class R:\n"
           "    def handle(self, op, fast):\n"
           "        self.lock.acquire(op)\n"
           "        if fast:\n"
           "            self.lock.release(op)\n"
           "            return 'fast'\n"
           "        return 'slow'\n")
    assert ids(src) == ["lock-discipline"]


def test_custody_registration_discharges():
    # handing the lock to the op-lock table transfers ownership to the
    # lease watchdog: the protocol's sanctioned way to outlive a handler
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n"
           "        self._op_locks[op] = True\n"
           "        return 'granted'\n")
    assert ids(src) == []


def test_guarded_acquire_failure_branch_is_unheld():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        ok = self._acquire(op)\n"
           "        if not ok:\n"
           "            return 'busy'\n"
           "        self._op_locks[op] = True\n"
           "        return 'granted'\n")
    assert ids(src) == []


def test_guarded_acquire_without_discharge_fires():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        ok = self._acquire(op)\n"
           "        return ok\n")
    assert ids(src) == ["lock-discipline"]


def test_fall_off_the_end_fires():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n")
    assert ids(src) == ["lock-discipline"]


def test_non_lock_receiver_is_ignored():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.semaphore.acquire(op)\n"
           "        return 'who knows'\n")
    assert ids(src) == []


def test_pragma_documents_intentional_custody_transfer():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        self.lock.acquire(op)\n"
           "        # repro: allow[lock-discipline] caller takes custody\n"
           "        return 'granted'\n")
    assert ids(src) == []


def test_rule_scope_excludes_sim():
    rule = LockDisciplineRule()
    assert rule.applies_to("core/replica.py")
    assert not rule.applies_to("sim/node.py")


def test_timed_acquire_helper_without_custody_fires():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        ok = yield from self.lock.acquire_within(op, 1.5)\n"
           "        return 'granted'\n")
    assert ids(src) == ["lock-discipline"]


def test_timed_acquire_helper_on_a_pooled_lock_fires():
    src = ("class R:\n"
           "    def handle(self, resource, op):\n"
           "        ok = yield from self._lock(resource).acquire_within(\n"
           "            op, 1.5, shared=True)\n"
           "        if ok:\n"
           "            return 'granted'\n"
           "        return 'busy'\n")
    assert ids(src) == ["lock-discipline"]


def test_timed_acquire_failure_branch_walks_unheld():
    src = ("class R:\n"
           "    def handle(self, op):\n"
           "        ok = yield from self.lock.acquire_within(op, 1.5)\n"
           "        if not ok:\n"
           "            return BUSY\n"
           "        self._op_locks[op] = True\n"
           "        return 'granted'\n")
    assert ids(src) == []
