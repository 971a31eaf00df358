"""Kernel backend selection.

``poly_mul``, ``poly_addmul`` and ``poly_mul_trunc`` come from the Cython
extension ``sparseproj._speedups`` when it has been built, otherwise from the
pure-Python twin; ``SPARSEPROJ_PURE=1`` forces the twin.  ``series_mul`` is
not selected: the pure-Python fraction-free convolution is the only one.
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("SPARSEPROJ_PURE", "") not in ("", "0"):
    _impl = _kernels_py
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

IMPLEMENTATION = _impl.IMPLEMENTATION
poly_mul = _impl.poly_mul
poly_addmul = _impl.poly_addmul
poly_mul_trunc = _impl.poly_mul_trunc
series_mul = _kernels_py.series_mul
