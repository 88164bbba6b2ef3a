"""Size caps for the exponential enumerations.

``MVRCG_MAX_N`` overrides ``model_cap()``, the one cap of the separation
models, the closures and the latent-DAG oracle.
"""

from __future__ import annotations

import os

from .errors import CapExceeded, GraphError

DEFAULT_MODEL_CAP = 7       # ground set for separation models and closures
DEFAULT_SUBSET_CAP = 12     # per-component / per-prefix subset enumeration
ENUMERATION_CAP = 6         # exhaustive graph enumeration
HARD_MODEL_CAP = 13         # a model can hold about 4**n / 2 codes


def _env_cap() -> int | None:
    """``MVRCG_MAX_N`` as a non-negative integer, or None when it is unset
    or empty."""
    env = os.environ.get("MVRCG_MAX_N")
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        raise GraphError(f"MVRCG_MAX_N must be an integer, got {env!r}") from None
    if cap < 0:
        raise GraphError(f"MVRCG_MAX_N must be non-negative, got {env!r}")
    return cap


def model_cap() -> int:
    override = _env_cap()
    if override is None:
        return DEFAULT_MODEL_CAP
    return min(override, HARD_MODEL_CAP)


def check_cap(size: int, cap: int, what: str = "vertices") -> None:
    """Raise ``CapExceeded`` when ``size`` (a count of ``what``) exceeds ``cap``."""
    if size > cap:
        raise CapExceeded(f"{size} {what} exceeds cap {cap}")
