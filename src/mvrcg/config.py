"""Size caps for the exponential enumerations.

``MVRCG_MAX_N`` overrides the default cap used by the separation-model,
closure and marginal-oracle routines.
"""

from __future__ import annotations

import os

from .errors import GraphError

DEFAULT_MODEL_CAP = 7       # ground set for separation models and closures
DEFAULT_MARGINAL_CAP = 6    # observed vertices for the latent-DAG oracle
DEFAULT_SUBSET_CAP = 12     # per-component / per-prefix subset enumeration
ENUMERATION_CAP = 6         # exhaustive graph enumeration
HARD_MODEL_CAP = 13         # the compiled closure bitmap has 4**n slots


def _env_cap() -> int | None:
    """``MVRCG_MAX_N`` as an integer, or None when it is unset or empty."""
    env = os.environ.get("MVRCG_MAX_N")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise GraphError(f"MVRCG_MAX_N must be an integer, got {env!r}") from None


def model_cap(override: int | None = None) -> int:
    if override is None:
        override = _env_cap()
    if override is None:
        return DEFAULT_MODEL_CAP
    return min(override, HARD_MODEL_CAP)


def marginal_cap(override: int | None = None) -> int:
    if override is None:
        override = _env_cap()
    return DEFAULT_MARGINAL_CAP if override is None else override
