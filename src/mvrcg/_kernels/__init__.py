"""The hot kernels: separation-model enumeration and the axiom-closure
fixpoint, which dominate the runtime of the verification sweeps.  They
have one source, the pure-Python ``pyfallback``; this package re-exports
its names.
"""

from . import pyfallback
from .pyfallback import (BACKEND, COMPOSITION, CONTRACTION, DECOMPOSITION, INTERSECTION,
                         WEAK_UNION, close_codes, global_model_codes, m_connected)


def load_compiled():
    """The compiled kernel module, of which there is none: always None.
    ``perfbench`` reads it for its provenance line and its parity gate."""
    return None
