"""Guarded NumPy import and the vectorized/reference core switch.

The hot core of the simulator (keystream generation, the thin-pool bitmap
and allocators, dense block stores) runs on NumPy when it is available.
Everything vectorized also keeps a pure-Python *reference*
implementation, and this module is the single switch deciding which one
runs:

* ``REPRO_NO_NUMPY=1`` in the environment disables NumPy entirely — the
  import is never attempted and every consumer takes its reference path.
  This is the escape hatch for environments without NumPy and the CI leg
  that proves the reference core is complete.
* :func:`reference_core` forces the reference path for a ``with`` block at
  runtime, NumPy installed or not. The differential equivalence tests use
  it to run the same seeded stack under both cores and demand bit-exact
  agreement.
* :func:`require_numpy` is for the few features with no reference fallback
  (phone-scale analyses); it raises :class:`~repro.errors.MissingNumpyError`
  with an actionable message instead of a bare ``ImportError``.

Vectorized code imports ``np`` from here and branches on
:func:`vector_enabled` — never on a bare ``import numpy`` — so the whole
stack honours one switch.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional

from repro.errors import MissingNumpyError

_ENV_VAR = "REPRO_NO_NUMPY"

#: True when the environment explicitly disabled NumPy (REPRO_NO_NUMPY=1).
NUMPY_DISABLED_BY_ENV = os.environ.get(_ENV_VAR, "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
)

np = None  # the numpy module, or None when disabled/missing
_IMPORT_ERROR: Optional[BaseException] = None
if not NUMPY_DISABLED_BY_ENV:
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError as exc:  # pragma: no cover - exercised via env leg
        _IMPORT_ERROR = exc

#: True when the numpy module was actually imported.
HAVE_NUMPY = np is not None

# Depth of nested reference_core() sections; positive forces the
# pure-Python path everywhere, exactly like running without NumPy.
_REFERENCE_DEPTH = 0


def vector_enabled() -> bool:
    """True when vectorized implementations should run right now."""
    return HAVE_NUMPY and _REFERENCE_DEPTH == 0


@contextlib.contextmanager
def reference_core() -> Iterator[None]:
    """Force the pure-Python reference core for the enclosed code.

    Inside this context every NumPy-accelerated code path falls back to
    its reference implementation, which must be observably identical:
    same bytes, same simulated clocks, same RNG draw order — only wall
    time may differ. The differential test battery runs each scenario
    once normally and once under this context (and the whole suite again
    under ``REPRO_NO_NUMPY=1``) to hold the cores to that contract.
    Nesting is allowed and cheap.
    """
    global _REFERENCE_DEPTH
    _REFERENCE_DEPTH += 1
    try:
        yield
    finally:
        _REFERENCE_DEPTH -= 1


def core_name() -> str:
    """``"numpy"`` or ``"reference"`` — which core is active right now."""
    return "numpy" if vector_enabled() else "reference"


def require_numpy(feature: str):
    """Return the numpy module or raise a clear, actionable error.

    For the few features that have no pure-Python fallback. *feature* is a
    short human-readable name used in the message.
    """
    if HAVE_NUMPY:
        return np
    if NUMPY_DISABLED_BY_ENV:
        raise MissingNumpyError(
            f"{feature} requires NumPy, but {_ENV_VAR}={os.environ.get(_ENV_VAR)!r} "
            f"disabled it; unset {_ENV_VAR} to use this feature"
        )
    raise MissingNumpyError(
        f"{feature} requires NumPy, which is not installed; install numpy "
        f"(declared in pyproject.toml) or set {_ENV_VAR}=1 to run the "
        f"pure-Python reference core where a fallback exists"
    ) from _IMPORT_ERROR
