"""Hot numeric kernels with a compiled fast path.

The compiled extension (``ruhull._kernels._speedups``, built from Cython) and
the pure-Python module (``ruhull._kernels._pure``) implement the same
functions (``dot``, ``best_support``, ``sub_scaled``, ``bareiss_row`` and
``combine``); the fastest available backend is picked once at import time. Set
``RUHULL_PURE=1`` in the environment to force the fallback, e.g. to compare
the two backends (see ``benchmarks/bench_kernels.py``).

All kernels are exact: they operate on Python ints and ``Fraction`` values
and never convert to floating point.
"""

import os

from . import _pure

if os.environ.get("RUHULL_PURE"):
    _impl = _pure
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND = "pure" if _impl is _pure else "compiled"

dot = _impl.dot
best_support = _impl.best_support
sub_scaled = _impl.sub_scaled
bareiss_row = _impl.bareiss_row
combine = _impl.combine
