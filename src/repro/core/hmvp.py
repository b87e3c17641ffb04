"""Coefficient-encoded homomorphic matrix-vector product (Algorithm 1).

This is the paper's primary contribution, end to end:

1. encode each matrix row per Eq. 1 and the vector per ``pt^(v)``;
2. multiply ``pt^(A_i) × ct^(v)`` — the constant coefficient of the
   product plaintext is the inner product ``<A_i, v>`` (Eq. 2);
3. ``EXTRACTLWES`` each result into an LWE ciphertext;
4. ``PACKLWES`` the LWE ciphertexts back into a single RLWE ciphertext.

:func:`hmvp` handles matrices up to ``(n, n)``; :class:`TiledHmvp`
extends to arbitrary shapes with the mini-batch + matrix-tiling scheme
the paper deploys for HeteroLR (Section V-B3): row tiles become separate
packs, column tiles use separate vector ciphertexts whose partial dot
products are aggregated *as LWE ciphertexts* before packing — the
aggregation cost is exactly why Fig. 6 shows throughput degrading once
``n >= m``.  Both are thin wrappers over the one HMVP engine,
:class:`repro.core.batch.BatchedHmvp`, on a private (uncached) encoding.

Every entry point also returns an :class:`HmvpOpCount` so the hardware
performance models can price the exact operation mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..he.bfv import BfvScheme
from ..he.packing import PackedResult
from ..he.rlwe import RlweCiphertext

if TYPE_CHECKING:
    from .batch import BatchedHmvp

__all__ = ["HmvpOpCount", "HmvpResult", "hmvp", "TiledHmvp"]


@dataclass
class HmvpOpCount:
    """Operation counts of one HMVP invocation (consumed by ``repro.hw``).

    NTT counts are in units of single-limb transforms (what one NTT
    functional unit executes); the dot-product stage transforms the
    augmented ciphertext (``2*(L+1)`` polys) once per row plus the
    augmented plaintext (``L+1`` polys) per row, and inverse-transforms
    the product.
    """

    rows: int = 0
    cols: int = 0
    dot_products: int = 0
    ntts: int = 0
    intts: int = 0
    pointwise_mults: int = 0
    rescales: int = 0
    extracts: int = 0
    lwe_additions: int = 0
    pack_reductions: int = 0
    keyswitches: int = 0
    automorphisms: int = 0

    def __add__(self, other: "HmvpOpCount") -> "HmvpOpCount":
        merged = HmvpOpCount()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    @classmethod
    def for_dot_products(cls, rows: int, cols: int, limbs_aug: int) -> "HmvpOpCount":
        """Stage 1-4 counts for ``rows`` dot products (vector resident)."""
        return cls(
            rows=rows,
            cols=cols,
            dot_products=rows,
            # per row: forward-NTT the plaintext (limbs_aug polys); the
            # ciphertext is transformed once and cached; pointwise-multiply
            # both components; inverse-NTT both components
            ntts=rows * limbs_aug + 2 * limbs_aug,
            intts=rows * 2 * limbs_aug,
            pointwise_mults=rows * 2 * limbs_aug,
            rescales=rows,
            extracts=rows,
        )

    @classmethod
    def for_cached_dot_products(
        cls, rows: int, cols: int, limbs_aug: int
    ) -> "HmvpOpCount":
        """Stage 1-4 counts with matrix rows resident in the NTT domain.

        Relative to :meth:`for_dot_products` the ``rows * limbs_aug``
        per-row plaintext transforms vanish — the engines keep the row
        tile staged (URAM-resident, Section III-C) and only the hoisted
        ciphertext transform and the product inverse transforms remain.
        """
        return cls(
            rows=rows,
            cols=cols,
            dot_products=rows,
            ntts=2 * limbs_aug,
            intts=rows * 2 * limbs_aug,
            pointwise_mults=rows * 2 * limbs_aug,
            rescales=rows,
            extracts=rows,
        )

    @classmethod
    def for_pack(cls, count: int, limbs: int, limbs_aug: int) -> "HmvpOpCount":
        """Stage 5-9 counts for packing ``count`` LWE ciphertexts.

        Each PACKTWOLWES performs one automorphism and one key-switch;
        one key-switch runs ``dnum`` digit products over the augmented
        basis: ``dnum * limbs_aug`` forward NTTs plus ``2 * limbs_aug``
        inverse NTTs after accumulation.
        """
        levels = max(count - 1, 0).bit_length()
        reductions = (1 << levels) - 1
        dnum = limbs
        return cls(
            pack_reductions=reductions,
            automorphisms=reductions,
            keyswitches=reductions,
            ntts=reductions * dnum * limbs_aug,
            intts=reductions * 2 * limbs_aug,
            pointwise_mults=reductions * dnum * 2 * limbs_aug,
            rescales=reductions * 2,
        )


@dataclass
class HmvpResult:
    """Result of a (possibly tiled) HMVP.

    ``packs[r]`` holds rows ``r*n .. r*n + packs[r].count - 1`` of ``A·v``.
    """

    packs: List[PackedResult]
    rows: int
    cols: int
    ops: HmvpOpCount = field(default_factory=HmvpOpCount)

    def decrypt(self, scheme: BfvScheme) -> np.ndarray:
        """Decrypt all row tiles into the full result vector (objects)."""
        parts = [scheme.decrypt_packed(pack) for pack in self.packs]
        return np.concatenate(parts)


def _one_shot(
    scheme: BfvScheme, matrix: np.ndarray, tile_rows: Optional[int] = None
) -> "BatchedHmvp":
    """An engine over a private cache: one-off products never fill
    the process-wide :data:`repro.core.batch.MATRIX_CACHE`."""
    from .batch import BatchedHmvp, EncodedMatrixCache  # batch imports us

    return BatchedHmvp(
        scheme, matrix, cache=EncodedMatrixCache(1), tile_rows=tile_rows
    )


def hmvp(
    scheme: BfvScheme,
    matrix: Sequence[Sequence[int]],
    ct_v: RlweCiphertext,
) -> HmvpResult:
    """Algorithm 1 for a matrix with ``m, n <= N``, one packed result.

    ``ct_v`` is an augmented Eq. 1 vector encryption (``encrypt_vector``);
    the ops include the one-off row encoding (``m * (L+1)`` forward NTTs).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    m, n = matrix.shape
    if m > scheme.params.n or n > scheme.params.n:
        raise ValueError(f"{m}x{n} exceeds ring degree {scheme.params.n}; use TiledHmvp")
    engine = _one_shot(scheme, matrix)
    result = engine.multiply_one(ct_v)
    result.ops = engine.amortized_op_count(1)
    return result


class TiledHmvp:
    """Mini-batch + matrix-tiling HMVP for arbitrary ``(m, n)``.

    The matrix is cut into ``ceil(n / N)`` column tiles and row tiles of
    at most ``N`` rows.  Party A encrypts one vector ciphertext per
    column tile; per row, the partial dot products from each column tile
    are aggregated as LWE ciphertexts (cheap additions) before packing.
    """

    def __init__(self, scheme: BfvScheme) -> None:
        self.scheme = scheme
        self.ring_n = scheme.params.n

    def column_tiles(self, n: int) -> int:
        return -(-n // self.ring_n)

    def row_tiles(self, m: int) -> int:
        return -(-m // self.ring_n)

    def encrypt_vector(self, v: Sequence[int]) -> List[RlweCiphertext]:
        """One augmented ciphertext per column tile of the vector."""
        v = np.asarray(v)
        out = []
        for start in range(0, v.shape[0], self.ring_n):
            out.append(self.scheme.encrypt_vector(v[start : start + self.ring_n]))
        return out

    def multiply(
        self,
        matrix: Sequence[Sequence[int]],
        ct_tiles: List[RlweCiphertext],
        rows_per_pack: Optional[int] = None,
    ) -> HmvpResult:
        """Full tiled HMVP.

        ``rows_per_pack`` is the engine's ``tile_rows``: the rows folded
        into one output ciphertext, in ``1..N`` (default ``N``); smaller
        values model the paper's mini-batching.  The reported ops
        include the one-off row encoding.
        """
        engine = _one_shot(self.scheme, np.asarray(matrix), rows_per_pack)
        result = engine.multiply_tiles(ct_tiles)
        result.ops = engine.amortized_op_count(1)
        return result

    def __call__(
        self, matrix: Sequence[Sequence[int]], v: Sequence[int]
    ) -> np.ndarray:
        """Convenience: encrypt, multiply, decrypt, return ``A·v``."""
        ct_tiles = self.encrypt_vector(v)
        result = self.multiply(matrix, ct_tiles)
        return result.decrypt(self.scheme)
