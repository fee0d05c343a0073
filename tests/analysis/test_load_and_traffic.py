"""Load-sharing and traffic analysis tests."""

import pytest

from repro.analysis.load import LoadReport, jain_fairness, quorum_load
from repro.analysis.traffic import message_traffic
from repro.core.store import ReplicatedStore
from repro.coteries.grid import GridCoterie
from repro.coteries.majority import MajorityCoterie
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.coteries.tree import TreeCoterie
from repro.workloads.generators import ClientWorkload, run_workload


def names(n):
    return [f"n{i:02d}" for i in range(n)]


class TestJainFairness:
    def test_even_loads_score_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hot_node_scores_one_over_n(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_zero_total_is_fair(self):
        assert jain_fairness([0, 0]) == 1.0


class TestQuorumLoad:
    def test_grid_spreads_load_well(self):
        report = quorum_load(GridCoterie(names(25)), n_picks=500)
        assert report.fairness > 0.9
        assert report.quorum_size_mean == pytest.approx(9.0)  # 2*5-1

    def test_majority_load_is_heavier_per_node(self):
        grid = quorum_load(GridCoterie(names(25)), n_picks=500)
        majority = quorum_load(MajorityCoterie(names(25)), n_picks=500)
        grid_mean = sum(grid.per_node_load.values()) / 25
        majority_mean = sum(majority.per_node_load.values()) / 25
        # majority quorums are 13/25 vs the grid's 9/25: ~44% more load
        assert majority_mean > grid_mean * 1.3

    def test_tree_concentrates_load_on_root(self):
        report = quorum_load(TreeCoterie(names(15)), n_picks=400)
        root_load = report.per_node_load["n00"]
        assert root_load == pytest.approx(1.0)  # failure-free: root always
        assert report.fairness < 0.6

    def test_rowa_reads_are_the_lightest(self):
        report = quorum_load(ReadOneWriteAllCoterie(names(10)),
                             n_picks=400, kind="read")
        assert report.quorum_size_mean == 1.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            quorum_load(GridCoterie(names(4)), kind="scan")

    def test_summary_readable(self):
        report = quorum_load(GridCoterie(names(9)), n_picks=100)
        assert "fairness=" in report.summary()


class TestMessageTraffic:
    def make_run(self, n=9, seed=1, duration=25.0):
        store = ReplicatedStore.create(n, seed=seed, trace_enabled=True)
        run_workload(store, ClientWorkload(n_clients=3, duration=duration),
                     seed=seed)
        return store

    def test_report_counts_operations_and_messages(self):
        store = self.make_run()
        report = message_traffic(store.trace, store.history)
        assert report.operations > 5
        assert report.total_messages > report.operations
        assert report.messages_per_operation > 2

    def test_grid_traffic_below_poll_everyone(self):
        # Fast-path writes touch ~2*sqrt(N)-1 replicas, each costing a
        # request/response pair plus 2PC; well below 4 messages per node.
        store = self.make_run(n=16, seed=2)
        report = message_traffic(store.trace, store.history)
        assert report.messages_per_operation < 4 * 16

    def test_summary_readable(self):
        store = self.make_run(n=4, seed=3, duration=10.0)
        report = message_traffic(store.trace, store.history)
        assert "msgs" in report.summary()

    def test_untraced_store_rejected(self):
        # counts alone would report messages with 0 bytes; refuse instead
        store = ReplicatedStore.create(4, seed=3)
        store.write({"k": 1}, via="n00")
        assert store.network.messages_sent > 0
        with pytest.raises(ValueError, match="trace_enabled=True"):
            message_traffic(store.trace, store.history)
