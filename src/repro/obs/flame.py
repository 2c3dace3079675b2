"""Flamegraph export: span forests as Brendan-Gregg folded stacks.

A folded-stack file has one line per unique call path —
``root;child;grandchild 1234`` — where the count is the path's *self*
time (time spent in the leaf frame itself, children excluded). That is
exactly the input ``flamegraph.pl``, speedscope and most flamegraph
viewers consume, so ``repro flame`` output can be piped straight into
standard tooling.

Counts are integer microseconds; the sim-clock
timeline is deterministic per seed, the wall-clock timeline is opt-in via
``observe(wall=True)``. :func:`parse_folded` reads the format back so the
aggregation round-trips (asserted in tests).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ObsError
from repro.obs.recorder import Recorder


def _self_times(recorder: Recorder, timeline: str) -> List[float]:
    """Per-span exclusive time: duration minus direct children, >= 0."""
    if timeline == "sim":
        durations = [s.duration for s in recorder.spans]
    elif timeline == "wall":
        if not recorder.wall:
            raise ObsError(
                "wall-clock stacks need a recorder opened with "
                "observe(wall=True)"
            )
        durations = [s.wall_duration for s in recorder.spans]
    else:
        raise ObsError(f"unknown timeline {timeline!r}; use 'sim' or 'wall'")
    self_s = list(durations)
    for s in recorder.spans:
        if s.parent is not None:
            self_s[s.parent] -= durations[s.index]
    return [max(t, 0.0) for t in self_s]


def folded_stacks(
    recorder: Recorder, timeline: str = "sim"
) -> Dict[str, float]:
    """Aggregate self time (seconds) per unique ``a;b;c`` span path."""
    self_s = _self_times(recorder, timeline)
    paths: List[str] = []
    out: Dict[str, float] = {}
    for s in recorder.spans:
        if s.parent is None:
            path = s.name
        else:
            path = paths[s.parent] + ";" + s.name
        paths.append(path)
        out[path] = out.get(path, 0.0) + self_s[s.index]
    return out


def render_folded(stacks: Dict[str, float]) -> str:
    """Folded-stack text: one ``path count`` line per path, sorted.

    Counts are ``round(seconds * 1e6)``; paths that round to zero are
    dropped (flamegraph tools ignore zero-weight frames anyway).
    """
    lines = []
    for path in sorted(stacks):
        count = int(round(stacks[path] * 1e6))
        if count > 0:
            lines.append(f"{path} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_folded(text: str) -> Dict[str, int]:
    """Parse folded-stack text back into ``{path: count}``."""
    out: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        path, sep, count = line.rpartition(" ")
        if not sep:
            raise ObsError(f"folded line {lineno} has no count: {line!r}")
        try:
            value = int(count)
        except ValueError:
            raise ObsError(
                f"folded line {lineno} has a non-integer count: {line!r}"
            ) from None
        out[path] = out.get(path, 0) + value
    return out
