"""Hot-kernel selection.

The separation-model enumeration and the axiom-closure fixpoint dominate
the runtime of the verification sweeps, so both exist twice: a compiled
Cython module and a pure-Python twin with identical semantics.  The
compiled one is used when importable; ``MVRCG_PURE_PYTHON=1`` forces the
fallback (the parity test suite and the benchmark compare the two).
"""

import os

from . import pyfallback
from .pyfallback import COMPOSITION, CONTRACTION, DECOMPOSITION, INTERSECTION, WEAK_UNION

if os.environ.get("MVRCG_PURE_PYTHON"):
    impl = pyfallback
else:
    try:
        from . import _core as impl  # type: ignore[attr-defined]
    except ImportError:
        impl = pyfallback

BACKEND = impl.BACKEND

m_connected = impl.m_connected
global_model_codes = impl.global_model_codes
close_codes = impl.close_codes


def load_compiled():
    """The compiled kernel module, or None when it is not built."""
    try:
        from . import _core  # type: ignore[attr-defined]
        return _core
    except ImportError:
        return None
