"""Split-operand modular multiply: the reference for ``modmul_vec``."""

import numpy as np

from repro.math.modular import SPLIT_BITS

_LOW_MASK = np.uint64((1 << SPLIT_BITS) - 1)
_SHIFT = np.uint64(SPLIT_BITS)


def modmul_vec_split(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Coefficient-wise ``(a * b) mod q`` via the split-operand path.

    Exactness argument: write ``a = a_hi * 2**20 + a_lo``.  With
    ``a, b < q < 2**41`` every intermediate below is at most
    ``2**21 * 2**41 = 2**62`` (``a_hi * b``), ``(q-1) * 2**20 < 2**61``
    (the shifted reduced high part), ``2**20 * 2**41 = 2**61``
    (``a_lo * b``), or their sum ``< 2**62`` — all inside ``uint64``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    hi = (a >> _SHIFT) * b % qq
    lo = (a & _LOW_MASK) * b % qq
    return ((hi << _SHIFT) + lo) % qq
