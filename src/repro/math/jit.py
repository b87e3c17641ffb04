"""Opt-in numba JIT kernels behind the ``REPRO_JIT=1`` feature flag.

The container image does not ship numba, and the pure-NumPy kernels are
the correctness oracle, so JIT compilation is strictly opt-in:

* the flag is read from the environment once at import
  (``REPRO_JIT=1``) and can be flipped programmatically with
  :func:`configure` (tests use this);
* when the flag is on but numba is missing, the flag is a no-op —
  :func:`enabled` stays ``False`` and every caller falls back to the
  NumPy paths (nothing is ever ``pip install``-ed implicitly);
* the kernels implement, per element, the exact split-operand formula
  of the reference multiply in ``tests/oracles/modular.py``, so JIT
  output is bit-identical to the oracle by construction (and by the
  ``REPRO_JIT=1`` differential suite in
  ``tests/test_fastpath_properties.py``).

This module deliberately imports nothing from the rest of the package
(``modular`` imports it), so the split constants are mirrored here; the
property tests pin them equal.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = ["available", "enabled", "configure", "modmul", "modadd", "modsub"]

#: mirror of ``modular.SPLIT_BITS`` (no import: modular imports us)
_SPLIT_BITS = 20
_LOW_MASK = (1 << _SPLIT_BITS) - 1

try:  # pragma: no cover - exercised only on the numba CI leg
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

_ENABLED = os.environ.get("REPRO_JIT", "0") == "1" and _numba is not None


def available() -> bool:
    """True when numba is importable in this environment."""
    return _numba is not None


def enabled() -> bool:
    """True when the JIT dispatch is active (flag set *and* numba present)."""
    return _ENABLED


def configure(enabled: Optional[bool] = None) -> bool:
    """Flip the JIT dispatch at runtime; returns the effective state.

    Enabling without numba installed is a no-op (the NumPy paths keep
    serving); tests use this to exercise both dispatch branches without
    re-importing the package.
    """
    global _ENABLED
    if enabled is not None:
        _ENABLED = bool(enabled) and _numba is not None
    return _ENABLED


if _numba is not None:  # pragma: no cover - compiled only on the numba leg

    @_numba.njit(cache=True, nogil=True)
    def _modmul_kernel(a, b, q, out):  # type: ignore[no-untyped-def]
        for i in range(a.size):
            ai = a[i]
            bi = b[i]
            hi = ((ai >> _SPLIT_BITS) * bi) % q  # repro: noqa REPRO101 -- split keeps intermediates < 2**62
            lo = ((ai & _LOW_MASK) * bi) % q  # repro: noqa REPRO101 -- split keeps intermediates < 2**62
            out[i] = ((hi << _SPLIT_BITS) + lo) % q

    @_numba.njit(cache=True, nogil=True)
    def _modadd_kernel(a, b, q, out):  # type: ignore[no-untyped-def]
        for i in range(a.size):
            s = a[i] + b[i]
            out[i] = s - q if s >= q else s

    @_numba.njit(cache=True, nogil=True)
    def _modsub_kernel(a, b, q, out):  # type: ignore[no-untyped-def]
        for i in range(a.size):
            ai = a[i]
            bi = b[i]
            out[i] = ai - bi if ai >= bi else ai + q - bi


def _run_kernel(kernel, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    a_b, b_b = np.broadcast_arrays(a, b)
    shape = a_b.shape
    a_flat = np.ascontiguousarray(a_b, dtype=np.uint64).reshape(-1)
    b_flat = np.ascontiguousarray(b_b, dtype=np.uint64).reshape(-1)
    out = np.empty_like(a_flat)
    kernel(a_flat, b_flat, np.uint64(q), out)
    return out.reshape(shape)


def modmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """JIT ``(a * b) mod q``; bit-identical to the split-operand oracle."""
    return _run_kernel(_modmul_kernel, a, b, q)


def modadd(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """JIT ``(a + b) mod q``."""
    return _run_kernel(_modadd_kernel, a, b, q)


def modsub(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """JIT ``(a - b) mod q``."""
    return _run_kernel(_modsub_kernel, a, b, q)
