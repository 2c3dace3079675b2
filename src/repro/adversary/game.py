"""The multi-snapshot security game of Sec. III-C, implemented literally.

A simulator S flips a coin ``b`` and owns a phone with a hidden volume. The
adversary A supplies pairs of access patterns ``(O0_i, O1_i)`` — subject to
the model's restriction that their *public* operations are identical — and
after each execution receives an on-event snapshot of the raw storage
medium. A also holds the public (decoy) password and full design knowledge,
including how to parse the on-disk thin metadata. A then guesses ``b``; the
scheme is secure when A's advantage ``|Pr[b' = b] - 1/2|`` is negligible.

The canonical distinguishing attempt is exactly the one the paper defends
against: ``O0_i`` writes only public data, ``O1_i`` writes hidden data plus
the *same* public data. Against a single-snapshot scheme (MobiPluto-style)
the hidden allocations are unaccountable and A wins every game; against
MobiCeal they drown in the dummy-write noise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.adversary.metadata import (
    extract_pool_metadata,
    new_allocations_per_volume,
)
from repro.blockdev.snapshot import Snapshot
from repro.crypto.rng import Rng

PUBLIC_VOLUME_ID = 1

#: size range of a canonical round's public write
PUBLIC_BYTES_RANGE = (200 * 1024, 800 * 1024)
#: size of the one hidden write world 1 adds per round
HIDDEN_BYTES = 32 * 1024
#: simulated time between rounds (one day)
INTER_ROUND_GAP_S = 86400.0


@dataclass(frozen=True)
class AccessOp:
    """One operation of an access pattern."""

    volume: str  # "public" | "hidden"
    path: str
    nbytes: int


AccessPattern = Tuple[AccessOp, ...]


def make_pattern_pairs(
    rounds: int, rng: Rng
) -> List[Tuple[AccessPattern, AccessPattern]]:
    """The canonical pattern pairs (public-only vs hidden+public cover).

    The public operations are identical across each pair, as the security
    model requires; only the hidden write differs.
    """
    pairs: List[Tuple[AccessPattern, AccessPattern]] = []
    for i in range(rounds):
        public_bytes = rng.randint(*PUBLIC_BYTES_RANGE)
        public_op = AccessOp("public", f"/docs/report_{i}.bin", public_bytes)
        hidden_op = AccessOp("hidden", f"/secret/evidence_{i}.bin", HIDDEN_BYTES)
        pairs.append(((public_op,), (hidden_op, public_op)))
    return pairs


def pattern_pairs_from_trace(
    trace_ops: Sequence[object], rounds: int
) -> List[Tuple[AccessPattern, AccessPattern]]:
    """Pattern pairs whose public cover traffic is a recorded workload.

    Instead of the canonical synthetic cover (one public write per round),
    slice a recorded workload trace (``repro.workload`` ``TraceOp`` list)
    into *rounds* chunks and aggregate each chunk's write volume per path
    into that round's public operations. The adversary then faces exactly
    the app-shaped traffic the workload engine recorded — Zipf-popular
    small synced appends, media bursts — rather than uniform blobs, which
    is the realistic setting for the dummy-write defense.

    The security model's restriction holds by construction: both patterns
    of a pair share the identical public operations; world 1 prepends one
    hidden write of ``HIDDEN_BYTES``.
    """
    writes = [
        op for op in trace_ops
        if getattr(op, "op", None) == "write" and op.length > 0
    ]
    if not writes:
        raise ValueError("trace contains no write operations")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    rounds = min(rounds, len(writes))
    chunk = -(-len(writes) // rounds)
    pairs: List[Tuple[AccessPattern, AccessPattern]] = []
    for i in range(rounds):
        per_path: dict = {}
        for op in writes[i * chunk:(i + 1) * chunk]:
            per_path[op.path] = per_path.get(op.path, 0) + op.length
        public_ops = tuple(
            AccessOp("public", path, nbytes)
            for path, nbytes in sorted(per_path.items())
        )
        if not public_ops:
            break
        hidden_op = AccessOp(
            "hidden", f"/secret/evidence_{i}.bin", HIDDEN_BYTES
        )
        pairs.append((public_ops, (hidden_op,) + public_ops))
    return pairs


def trace_pairs_factory(
    trace_ops: Sequence[object],
) -> Callable[[int, Rng], List[Tuple[AccessPattern, AccessPattern]]]:
    """A ``pairs_factory`` for :class:`MultiSnapshotGame` built on a trace."""

    def factory(rounds: int, rng: Rng):
        return pattern_pairs_from_trace(trace_ops, rounds)

    return factory


class GameHarness(ABC):
    """Drives one system-under-test inside the game."""

    #: layout constant the adversary needs to parse metadata
    metadata_fraction: float = 0.02

    @abstractmethod
    def setup(self) -> None:
        """Initialize and boot the system into its public mode."""

    @abstractmethod
    def execute(self, pattern: AccessPattern) -> None:
        """Run one access pattern; must end back in the public mode."""

    @abstractmethod
    def snapshot(self, label: str) -> Snapshot:
        """On-event snapshot of the raw storage medium."""

    @abstractmethod
    def pass_time(self, seconds: float) -> None:
        """Advance simulated time between inspections."""


class Adversary(ABC):
    """A PPT adversary strategy: observes snapshots, guesses b."""

    @abstractmethod
    def guess(
        self,
        snapshots: Sequence[Snapshot],
        pairs: Sequence[Tuple[AccessPattern, AccessPattern]],
        metadata_fraction: float,
    ) -> int:
        """Return the guessed bit (0 or 1)."""


class UnaccountableAllocationAdversary(Adversary):
    """Counts allocations the public volume cannot explain.

    Parses the thin metadata out of every snapshot (it sits at a known,
    unencrypted location) and, per inspection interval, counts data blocks
    newly provisioned to volumes other than the public one. In world 1 the
    hidden writes add ``hidden_blocks`` per round on top of whatever dummy
    noise exists; the adversary guesses 1 when the per-round unaccountable
    allocation count exceeds its threshold.

    Against a scheme with no dummy writes the unaccountable count is 0 in
    world 0, so any threshold below the hidden file size wins always.
    """

    def __init__(self, threshold_blocks_per_round: float) -> None:
        self.threshold = threshold_blocks_per_round

    def statistic(
        self, snapshots: Sequence[Snapshot], metadata_fraction: float
    ) -> float:
        """Mean unaccountable new allocations per inspection interval."""
        metas = [
            extract_pool_metadata(s, metadata_fraction) for s in snapshots
        ]
        total = 0
        intervals = 0
        for before, after in zip(metas, metas[1:]):
            fresh = new_allocations_per_volume(before, after)
            total += sum(
                count for vol_id, count in fresh.items()
                if vol_id != PUBLIC_VOLUME_ID
            )
            intervals += 1
        return total / intervals if intervals else 0.0

    def guess(self, snapshots, pairs, metadata_fraction) -> int:
        return 1 if self.statistic(snapshots, metadata_fraction) > self.threshold else 0


class ClusteredAllocationAdversary(Adversary):
    """Exploits spatial clustering — the attack random allocation defeats.

    Sec. IV-B Q4: with *sequential* allocation, a hidden file lands as one
    physically contiguous run of same-volume blocks, while dummy bursts are
    short. This adversary parses each snapshot's metadata, finds the
    longest run of physically consecutive data blocks newly allocated to
    one non-public volume within an interval, and guesses 1 when it
    exceeds the threshold.

    Against MobiCeal's random allocator the statistic collapses to ~1-2
    regardless of hidden activity; against a sequential-allocation build
    it reads off the hidden file size.
    """

    def __init__(self, run_threshold: int) -> None:
        self.run_threshold = run_threshold

    def statistic(
        self, snapshots: Sequence[Snapshot], metadata_fraction: float
    ) -> int:
        metas = [
            extract_pool_metadata(s, metadata_fraction) for s in snapshots
        ]
        longest = 0
        for before, after in zip(metas, metas[1:]):
            per_volume: dict = {}
            for vol_id, record in after.volumes.items():
                if vol_id == PUBLIC_VOLUME_ID:
                    continue
                old_rec = before.volumes.get(vol_id)
                old_mappings = old_rec.mappings if old_rec else {}
                fresh = sorted(
                    pblock
                    for vblock, pblock in record.mappings.items()
                    if vblock not in old_mappings
                )
                per_volume[vol_id] = fresh
            for blocks in per_volume.values():
                run = 1
                for a, b in zip(blocks, blocks[1:]):
                    run = run + 1 if b == a + 1 else 1
                    longest = max(longest, run)
                if blocks:
                    longest = max(longest, 1)
        return longest

    def guess(self, snapshots, pairs, metadata_fraction) -> int:
        return 1 if self.statistic(snapshots, metadata_fraction) > self.run_threshold else 0


@dataclass
class GameResult:
    """Outcome of a batch of games."""

    games: int
    wins: int

    @property
    def win_rate(self) -> float:
        return self.wins / self.games if self.games else 0.0

    @property
    def advantage(self) -> float:
        return abs(self.win_rate - 0.5)


class MultiSnapshotGame:
    """Runs the Setup / Training / Guess phases repeatedly."""

    def __init__(
        self,
        harness_factory: Callable[[int], GameHarness],
        rounds: int = 4,
        seed: int = 0,
        pairs_factory: Optional[
            Callable[[int, Rng], List[Tuple[AccessPattern, AccessPattern]]]
        ] = None,
    ) -> None:
        self._harness_factory = harness_factory
        self.rounds = rounds
        self._rng = Rng(seed)
        # how the adversary's pattern pairs are produced per game; defaults
        # to the canonical synthetic pairs, or e.g. trace_pairs_factory()
        # to play the game under recorded app-shaped cover traffic
        self._pairs_factory = pairs_factory or make_pattern_pairs

    def play_one(self, adversary: Adversary, game_index: int) -> bool:
        """One full game; returns True when the adversary guessed b."""
        b = self._rng.randint(0, 1)
        harness = self._harness_factory(game_index)
        harness.setup()
        pairs = self._pairs_factory(self.rounds, self._rng.fork(f"patterns-{game_index}"))
        snapshots: List[Snapshot] = [harness.snapshot("D0")]
        for i, (o0, o1) in enumerate(pairs):
            harness.execute(o1 if b == 1 else o0)
            snapshots.append(harness.snapshot(f"D{i + 1}"))
            harness.pass_time(INTER_ROUND_GAP_S)
        guess = adversary.guess(snapshots, pairs, harness.metadata_fraction)
        return guess == b

    def run(self, adversary: Adversary, games: int = 20) -> GameResult:
        # zero games would score a win rate of 0, i.e. a perfect distinguisher
        if games < 1:
            raise ValueError(f"games must be >= 1, got {games}")
        wins = sum(
            1 for g in range(games) if self.play_one(adversary, g)
        )
        return GameResult(games=games, wins=wins)


def best_advantage(
    game: MultiSnapshotGame,
    thresholds: Sequence[float],
    games_per_threshold: int = 20,
) -> Tuple[float, float]:
    """Sweep thresholds, return (best_threshold, best_advantage).

    Models a strong adversary that picked the best distinguishing
    threshold for the system under attack. Raises :class:`ValueError` when
    *games_per_threshold* is below 1.
    """
    best = (thresholds[0], -1.0)
    for threshold in thresholds:
        result = game.run(
            UnaccountableAllocationAdversary(threshold), games_per_threshold
        )
        if result.advantage > best[1]:
            best = (threshold, result.advantage)
    return best
