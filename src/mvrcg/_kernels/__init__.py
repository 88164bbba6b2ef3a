"""The hot kernels: separation-model enumeration and the elementary
closure worklist, which dominate the runtime of the verification
sweeps.  They have one source, the pure-Python ``pyfallback``, from
which the package imports them.  This package keeps what ``perfbench``
reads: ``BACKEND``, ``load_compiled`` and the ``pyfallback`` module.
"""

from . import pyfallback

BACKEND = "python"


def load_compiled():
    """The compiled kernel module, of which there is none: always None.
    ``perfbench`` reads it for its provenance line and its parity gate."""
    return None
