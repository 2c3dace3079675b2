"""Tests for the multi-snapshot security game machinery."""

import pytest

from repro.adversary import (
    AccessOp,
    GameResult,
    MobiCealHarness,
    MobiPlutoHarness,
    MultiSnapshotGame,
    UnaccountableAllocationAdversary,
    best_advantage,
    make_pattern_pairs,
    pattern_pairs_from_trace,
    trace_pairs_factory,
)
from repro.crypto import Rng
from repro.workload import DeviceSpec, TraceOp, record_device


class TestPatternPairs:
    def test_public_parts_identical(self):
        """The security model requires O0 and O1 to agree on public ops."""
        pairs = make_pattern_pairs(5, Rng(0))
        for o0, o1 in pairs:
            public0 = [op for op in o0 if op.volume == "public"]
            public1 = [op for op in o1 if op.volume == "public"]
            assert public0 == public1

    def test_worlds_differ_only_in_hidden_ops(self):
        pairs = make_pattern_pairs(5, Rng(0))
        for o0, o1 in pairs:
            assert all(op.volume == "public" for op in o0)
            hidden = [op for op in o1 if op.volume == "hidden"]
            assert len(hidden) == 1

    def test_paths_unique_across_rounds(self):
        pairs = make_pattern_pairs(8, Rng(1))
        paths = [op.path for _o0, o1 in pairs for op in o1]
        assert len(paths) == len(set(paths))


class TestTracePatternPairs:
    """Pairs whose cover traffic comes from a recorded workload trace."""

    @pytest.fixture(scope="class")
    def trace(self):
        _report, trace = record_device(
            DeviceSpec(personality="mixed_daily", ops=50, seed=9)
        )
        return trace

    def test_model_restriction_holds(self, trace):
        pairs = pattern_pairs_from_trace(trace, 4)
        assert len(pairs) == 4
        for o0, o1 in pairs:
            assert all(op.volume == "public" for op in o0)
            assert o1[0].volume == "hidden"
            assert o1[1:] == o0

    def test_volumes_match_trace_write_bytes(self, trace):
        pairs = pattern_pairs_from_trace(trace, 3)
        total = sum(op.nbytes for o0, _o1 in pairs for op in o0)
        traced = sum(
            op.length for op in trace if op.op == "write" and op.length > 0
        )
        assert total == traced

    def test_rounds_clamped_to_write_count(self):
        trace = [TraceOp(op="write", path="/f", length=100)]
        pairs = pattern_pairs_from_trace(trace, 10)
        assert len(pairs) == 1

    def test_no_writes_rejected(self):
        with pytest.raises(ValueError):
            pattern_pairs_from_trace([TraceOp(op="fsync")], 2)
        with pytest.raises(ValueError):
            pattern_pairs_from_trace(
                [TraceOp(op="write", path="/f", length=10)], 0
            )

    def test_game_accepts_trace_pairs_factory(self, trace):
        game = MultiSnapshotGame(
            lambda i: MobiPlutoHarness(seed=600 + i, userdata_blocks=4096),
            rounds=2,
            seed=8,
            pairs_factory=trace_pairs_factory(trace),
        )
        # hidden allocations stay unaccountable even under app-shaped cover
        result = game.run(UnaccountableAllocationAdversary(0.5), games=4)
        assert result.win_rate == 1.0


class TestGameResult:
    def test_advantage(self):
        assert GameResult(games=20, wins=10).advantage == 0.0
        assert GameResult(games=20, wins=20).advantage == 0.5
        assert GameResult(games=20, wins=0).advantage == 0.5
        assert GameResult(games=0, wins=0).win_rate == 0.0


class TestGameCount:
    """A batch of no games has no win rate; it must not score as 0.5."""

    def make_game(self):
        return MultiSnapshotGame(
            lambda i: MobiPlutoHarness(seed=700 + i, userdata_blocks=4096),
            rounds=1,
        )

    @pytest.mark.parametrize("games", [0, -1])
    def test_run_rejects_non_positive_games(self, games):
        with pytest.raises(ValueError, match="games must be >= 1"):
            self.make_game().run(UnaccountableAllocationAdversary(0.5), games)

    def test_best_advantage_rejects_zero_games(self):
        with pytest.raises(ValueError, match="games must be >= 1"):
            best_advantage(self.make_game(), [0.5, 5.0], games_per_threshold=0)


class TestHarnesses:
    def test_mobiceal_harness_snapshot_geometry_stable(self):
        harness = MobiCealHarness(seed=300, userdata_blocks=4096)
        harness.setup()
        s1 = harness.snapshot("a")
        harness.execute((AccessOp("public", "/f.bin", 16384),))
        s2 = harness.snapshot("b")
        assert s1.num_blocks == s2.num_blocks == 4096
        assert s1.manifest_digest() != s2.manifest_digest()

    def test_mobiceal_harness_hidden_op_returns_to_public(self):
        from repro.core import Mode

        harness = MobiCealHarness(seed=301, userdata_blocks=4096)
        harness.setup()
        harness.execute(
            (
                AccessOp("hidden", "/secret.bin", 8192),
                AccessOp("public", "/cover.bin", 8192),
            )
        )
        assert harness.system.mode is Mode.PUBLIC

    def test_mobipluto_harness_round(self):
        harness = MobiPlutoHarness(seed=302, userdata_blocks=4096)
        harness.setup()
        harness.execute((AccessOp("hidden", "/h.bin", 8192),))
        assert harness.system.mode == "public"

    def test_unknown_volume_rejected(self):
        harness = MobiCealHarness(seed=303, userdata_blocks=4096)
        harness.setup()
        with pytest.raises(ValueError):
            harness.execute((AccessOp("swap", "/x", 100),))


class TestAdversaryStatistic:
    def test_statistic_zero_for_idle_system(self):
        harness = MobiCealHarness(seed=310, userdata_blocks=4096)
        harness.setup()
        snapshots = [harness.snapshot("a")]
        harness.pass_time(86400)
        snapshots.append(harness.snapshot("b"))
        adversary = UnaccountableAllocationAdversary(1)
        assert adversary.statistic(snapshots, 0.02) == 0.0

    def test_statistic_counts_hidden_allocations_without_dummies(self):
        harness = MobiPlutoHarness(seed=311, userdata_blocks=4096)
        harness.setup()
        snapshots = [harness.snapshot("a")]
        harness.execute((AccessOp("hidden", "/h.bin", 8 * 4096),))
        snapshots.append(harness.snapshot("b"))
        adversary = UnaccountableAllocationAdversary(1)
        stat = adversary.statistic(snapshots, 0.02)
        assert stat >= 8  # the hidden file's blocks are unaccountable

    def test_statistic_blind_to_public_writes(self):
        harness = MobiPlutoHarness(seed=312, userdata_blocks=4096)
        harness.setup()
        snapshots = [harness.snapshot("a")]
        harness.execute((AccessOp("public", "/p.bin", 16 * 4096),))
        snapshots.append(harness.snapshot("b"))
        adversary = UnaccountableAllocationAdversary(1)
        assert adversary.statistic(snapshots, 0.02) == 0.0


class TestFullGames:
    def test_mobipluto_fully_distinguishable(self):
        game = MultiSnapshotGame(
            lambda i: MobiPlutoHarness(seed=400 + i, userdata_blocks=4096),
            rounds=2,
            seed=5,
        )
        result = game.run(UnaccountableAllocationAdversary(0.5), games=6)
        assert result.win_rate == 1.0

    def test_mobiceal_not_trivially_distinguishable(self):
        game = MultiSnapshotGame(
            lambda i: MobiCealHarness(seed=500 + i, userdata_blocks=4096),
            rounds=2,
            seed=6,
        )
        # a naive zero-threshold adversary sees dummy noise in BOTH worlds
        # and degenerates to always answering 1 -> coin flipping
        result = game.run(UnaccountableAllocationAdversary(0.0), games=8)
        assert result.advantage <= 0.25


class TestClusteredAllocationAdversary:
    """The layout attack of Sec. IV-B Q4 and the random-allocation defense."""

    def _run_statistic(self, allocation: str, seed: int) -> int:
        from repro.adversary import ClusteredAllocationAdversary
        from repro.core import MobiCealConfig

        harness = MobiCealHarness(
            seed=seed,
            userdata_blocks=4096,
            config=MobiCealConfig(num_volumes=6, allocation=allocation),
        )
        harness.setup()
        snapshots = [harness.snapshot("a")]
        # a 40-block hidden file with the usual public cover
        harness.execute(
            (
                AccessOp("hidden", "/secret/footage.bin", 40 * 4096),
                AccessOp("public", "/cover.bin", 40 * 4096),
            )
        )
        snapshots.append(harness.snapshot("b"))
        return ClusteredAllocationAdversary(0).statistic(snapshots, 0.02)

    def test_sequential_allocation_leaks_run_length(self):
        run = self._run_statistic("sequential", seed=800)
        assert run >= 20  # the hidden file is visible as a long run

    def test_random_allocation_destroys_run_length(self):
        run = self._run_statistic("random", seed=801)
        assert run <= 6

    def test_adversary_wins_against_sequential_but_not_random(self):
        seq = self._run_statistic("sequential", seed=802)
        rnd = self._run_statistic("random", seed=803)
        threshold = 10
        assert seq > threshold and rnd <= threshold
