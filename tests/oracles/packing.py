"""Recursive PACKTWOLWES / PACKLWES (Algorithms 2 and 3), merge by merge.

The reference for ``repro.he.packing``, whose level-order tree runs all
merges of one level as a single stacked pass.
"""

from typing import List, Sequence

from repro.he.automorphism import apply_automorphism
from repro.he.keys import GaloisKeyset
from repro.he.lwe import LweCiphertext, lwe_to_rlwe
from repro.he.packing import PackedResult
from repro.he.rlwe import RlweCiphertext


def pack_two_lwes(
    level: int,
    ct_even: RlweCiphertext,
    ct_odd: RlweCiphertext,
    galois_keys: GaloisKeyset,
) -> RlweCiphertext:
    """Algorithm 2: merge two level-``(k-1)`` packs into a level-``k`` pack."""
    n = ct_even.ctx.n
    stride = n >> level
    if stride < 1:
        raise ValueError(f"level {level} exceeds log2(n)={n.bit_length() - 1}")
    g = (1 << level) + 1
    ct_mono = ct_odd.multiply_monomial(stride)
    ct_plus = ct_even + ct_mono
    ct_minus = ct_even - ct_mono
    ct_auto = apply_automorphism(ct_minus, g, galois_keys)
    return ct_plus + ct_auto


def pack_lwes_recursive(
    lwes: Sequence[LweCiphertext],
    galois_keys: GaloisKeyset,
) -> PackedResult:
    """Algorithm 3: recursively pack ``m`` LWE ciphertexts into one RLWE.

    Inputs are zero-padded to the next power of two with transparent
    zero ciphertexts, which is exact (zero message, zero noise).
    """
    if not lwes:
        raise ValueError("nothing to pack")
    ctx = lwes[0].ctx
    rlwes: List[RlweCiphertext] = [lwe_to_rlwe(lwe) for lwe in lwes]
    count = len(rlwes)
    levels = max(count - 1, 0).bit_length()
    target = 1 << levels
    if target > ctx.n:
        raise ValueError(f"cannot pack {count} > ring degree {ctx.n}")
    basis = rlwes[0].basis
    while len(rlwes) < target:
        rlwes.append(RlweCiphertext.zero(ctx, basis))

    def recurse(items: List[RlweCiphertext]) -> RlweCiphertext:
        # split by index parity so slot order comes out natural
        if len(items) == 1:
            return items[0]
        level = len(items).bit_length() - 1
        ct_even = recurse(items[0::2])
        ct_odd = recurse(items[1::2])
        return pack_two_lwes(level, ct_even, ct_odd, galois_keys)

    return PackedResult(
        ct=recurse(rlwes), count=count, scale_pow2=levels, reductions=target - 1
    )
