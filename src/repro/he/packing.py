"""PACKTWOLWES / PACKLWES — Algorithms 2 and 3 of the paper.

``pack_lwes`` folds ``m`` LWE ciphertexts (each holding a dot-product
result in its constant coefficient, Eq. 3 form) into a *single* RLWE
ciphertext whose plaintext carries value ``i`` at coefficient
``i * N / 2**ceil(log2 m)``.

The merge at level ``k`` (combining two packs of ``2**(k-1)`` into one of
``2**k``) is Algorithm 2:

1. ``ct_mono = ct_odd * X^(N / 2**k)``             (MULTMONO)
2. ``ct_plus = ct_even + ct_mono``                 (MODADD)
3. ``ct_minus = ct_even - ct_mono``                (MODSUB)
4. ``ct_auto = automorph(ct_minus, g = 2**k + 1)`` (AUTOMORPH)
5. ``return ct_plus + keyswitch(ct_auto)``         (KEYSWITCH)

Correctness: the Galois element ``g = 2**k + 1`` maps slot position
``j * N / 2**k`` to itself with sign ``(-1)^j``, so the sum keeps the even
slots from ``ct_plus`` and the odd slots from ``ct_mono`` — doubling every
slot.  A full pack therefore scales the packed messages by
``2**ceil(log2 m)``; the factor is removed *after decryption*, mod the odd
plaintext modulus ``t`` (see ``CoefficientEncoder.decode_packed``), at the
cost of ``ceil(log2 m)`` bits of noise budget.

Packing 4096 rows issues exactly 4095 PACKTWOLWES reductions — the binary
tree the paper's reduce buffer walks (Section III-A).

All three entry points — :func:`pack_lwes` (a list of LWEs),
:func:`pack_stacked_lwes` (one stacked request) and
:func:`pack_stacked_lwes_many` (``R`` requests in lock-step) — run the
same level-order tree, ``_pack_tree``.  The recursive Algorithm 2/3 code
is the bit-level reference in ``tests/oracles/packing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .. import obs
from ..math.modular import modadd_vec, modneg_vec, modsub_vec
from ..math.ntt import block_len
from ..math.polynomial import automorph, shiftneg
from ..math.rns import RnsBasis
from .context import CheContext
from .keys import GaloisKeyset
from .keyswitch import key_switch_raw
from .lwe import LweCiphertext
from .rlwe import RlweCiphertext

__all__ = [
    "PackedResult",
    "pack_lwes",
    "pack_stacked_lwes",
    "pack_stacked_lwes_many",
    "pack_reduction_count",
]


@dataclass
class PackedResult:
    """A packed RLWE ciphertext plus its bookkeeping.

    Attributes
    ----------
    ct:
        The packed ciphertext (normal basis).
    count:
        Number of source LWE ciphertexts (before zero-padding).
    scale_pow2:
        The pack multiplied every message by ``2**scale_pow2``.
    reductions:
        Number of PACKTWOLWES invocations performed (paper: ``m - 1`` for
        a power-of-two ``m``).
    """

    ct: RlweCiphertext
    count: int
    scale_pow2: int
    reductions: int

    @property
    def slot_stride(self) -> int:
        return self.ct.ctx.n >> self.scale_pow2


def pack_lwes(
    lwes: Sequence[LweCiphertext],
    galois_keys: GaloisKeyset,
) -> PackedResult:
    """Algorithm 3: pack ``m`` LWE ciphertexts into one RLWE ciphertext.

    The list front end of :func:`pack_stacked_lwes`: stacks the LWE
    components and runs the level-order pack tree.  The recursion of
    Algorithm 3 is a perfect binary tree whose merges at level ``k`` all
    share the Galois element ``g = 2**k + 1`` and monomial stride
    ``n >> k``, so each level is one pass of stacked kernels plus one
    batched key-switch; iterating levels with ``next[r] = merge(k,
    cur[r], cur[r + half])`` reproduces the recursion's parity splits, so
    the ciphertext is byte-for-byte Algorithm 3's (the recursive
    reference lives in ``tests/oracles/packing.py``).  Inputs are
    zero-padded to the next power of two with transparent zero
    ciphertexts, which is exact (zero message, zero noise).
    """
    if not lwes:
        raise ValueError("nothing to pack")
    for lwe in lwes:
        if lwe.basis.moduli != lwes[0].basis.moduli:
            raise ValueError("LWE basis mismatch")
    return pack_stacked_lwes(
        lwes[0].ctx,
        lwes[0].basis,
        np.stack([lwe.b for lwe in lwes], axis=1),
        np.stack([lwe.a for lwe in lwes], axis=1),
        galois_keys,
    )


def pack_stacked_lwes(
    ctx: CheContext,
    basis: RnsBasis,
    b: np.ndarray,
    a: np.ndarray,
    galois_keys: GaloisKeyset,
) -> PackedResult:
    """Batched pack over pre-stacked LWE components.

    ``b`` has shape ``(L, m)`` and ``a`` has shape ``(L, m, n)`` — the
    layout the vectorized extract produces, so the batched HMVP engine
    never materializes per-row :class:`LweCiphertext` objects.
    """
    nlimbs, count = b.shape
    if a.shape != (nlimbs, count, ctx.n) or nlimbs != len(basis):
        raise ValueError(f"stacked LWE shapes {b.shape} / {a.shape} mismatch")
    (packed,) = _pack_tree(
        ctx, basis, b[:, np.newaxis], a[:, np.newaxis], galois_keys
    )
    return packed


def pack_stacked_lwes_many(
    ctx: CheContext,
    basis: RnsBasis,
    b: np.ndarray,
    a: np.ndarray,
    galois_keys: GaloisKeyset,
) -> List[PackedResult]:
    """Pack ``R`` independent stacked-LWE batches in lock-step.

    ``b`` has shape ``(L, R, m)`` and ``a`` shape ``(L, R, m, n)`` — one
    pack of ``m`` LWEs per request.  All ``R`` pack trees share the same
    level schedule (same Galois element and monomial stride at each
    level), so every level issues *one* SHIFTNEG/AUTOMORPH pass and one
    batched key-switch over all requests at once, instead of ``R``
    separate pack pipelines.  Each returned pack is bit-identical to
    running :func:`pack_stacked_lwes` on that request alone.
    """
    if b.ndim != 3:
        raise ValueError(f"expected (L, R, m) stacked b, got shape {b.shape}")
    nlimbs, reqs, count = b.shape
    if a.shape != (nlimbs, reqs, count, ctx.n) or nlimbs != len(basis):
        raise ValueError(f"stacked LWE shapes {b.shape} / {a.shape} mismatch")
    return _pack_tree(ctx, basis, b, a, galois_keys)


def _pack_tree(
    ctx: CheContext,
    basis: RnsBasis,
    b: np.ndarray,
    a: np.ndarray,
    galois_keys: GaloisKeyset,
) -> List[PackedResult]:
    """The shared PACKLWES tree over ``(L, R, m)`` / ``(L, R, m, n)`` stacks.

    Returns one :class:`PackedResult` per request.  The Eq. 3 embedding
    and every level run in blocks of :func:`block_len` pairs, so no
    level materializes temporaries over the whole stack.  Level ``k``
    merges pair ``r`` — even ``c[:, :, r]`` with odd
    ``c[:, :, half + r]`` — into ``c[:, :, r]`` in place: a block reads
    ``[lo, hi)`` and ``[half + lo, half + hi)`` and writes only
    ``[lo, hi)``, which no later block of the level reads.
    """
    nlimbs, reqs, count = b.shape
    if count < 1 or reqs < 1:
        raise ValueError("nothing to pack")
    levels = max(count - 1, 0).bit_length()
    target = 1 << levels
    if target > ctx.n:
        raise ValueError(f"cannot pack {count} > ring degree {ctx.n}")
    n = ctx.n

    with obs.span(
        "PACK", count=count, levels=levels, requests=reqs, mode="batched"
    ):
        # Eq. 3 embedding for every request at once, zero-padded to the
        # next power of two (transparent zero ciphertexts, exact).
        q_col = basis.modulus_column.reshape(-1, 1, 1, 1)
        c0 = np.zeros((nlimbs, reqs, target, n), dtype=np.uint64)
        c1 = np.zeros((nlimbs, reqs, target, n), dtype=np.uint64)
        # a block of pairs is sized by its key-switch digit stack, the
        # largest operand of a merge: L_aug * L polynomials per request
        step = block_len(len(ctx.aug_basis) * nlimbs * reqs * n * c0.itemsize)
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            c0[:, :, lo:hi, 0] = b[:, :, lo:hi]
            c1[:, :, lo:hi, 0] = a[:, :, lo:hi, 0]
            c1[:, :, lo:hi, 1:] = modneg_vec(a[:, :, lo:hi, :0:-1], q_col)
        half = target
        for k in range(1, levels + 1):
            half //= 2
            stride = n >> k
            g = (1 << k) + 1
            with obs.span("PACK.level", level=k, pairs=half, requests=reqs):
                obs.inc("he.pack.reductions", half * reqs)
                for lo in range(0, half, step):
                    hi = min(lo + step, half)
                    # SHIFTNEG / AUTOMORPH broadcast over requests, pairs
                    # and limbs; one batched key-switch per block covers
                    # its merges across all R pack trees
                    e0, e1 = c0[:, :, lo:hi], c1[:, :, lo:hi]
                    o0 = c0[:, :, half + lo : half + hi]
                    o1 = c1[:, :, half + lo : half + hi]
                    mono0 = shiftneg(o0, stride, q_col)
                    mono1 = shiftneg(o1, stride, q_col)
                    plus0 = modadd_vec(e0, mono0, q_col)
                    plus1 = modadd_vec(e1, mono1, q_col)
                    auto0 = automorph(modsub_vec(e0, mono0, q_col), g, q_col)
                    auto1 = automorph(modsub_vec(e1, mono1, q_col), g, q_col)
                    d0, d1 = key_switch_raw(ctx, auto1, galois_keys[g])
                    e0[...] = modadd_vec(plus0, modadd_vec(auto0, d0, q_col), q_col)
                    e1[...] = modadd_vec(plus1, d1, q_col)
        # (R, L, n), so each request's ciphertext is one contiguous slab
        r0 = np.ascontiguousarray(c0[:, :, 0].transpose(1, 0, 2))
        r1 = np.ascontiguousarray(c1[:, :, 0].transpose(1, 0, 2))
        obs.inc("he.pack.calls", reqs)
        return [
            PackedResult(
                ct=RlweCiphertext(ctx, basis, r0[r], r1[r]),
                count=count,
                scale_pow2=levels,
                reductions=target - 1,
            )
            for r in range(reqs)
        ]


def pack_reduction_count(m: int) -> int:
    """PACKTWOLWES invocations to pack ``m`` inputs (paper: 4095 for 4096)."""
    if m < 1:
        raise ValueError("m must be positive")
    levels = max(m - 1, 0).bit_length()
    return (1 << levels) - 1
