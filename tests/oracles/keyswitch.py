"""Per-digit / per-limb key-switch: the reference for ``key_switch_raw``."""

from typing import Tuple

import numpy as np

from repro.he.context import CheContext
from repro.he.keys import KeySwitchKey
from repro.math.modular import modadd_vec, modmul_vec


def key_switch_raw_loop(
    ctx: CheContext, c: np.ndarray, ksk: KeySwitchKey
) -> Tuple[np.ndarray, np.ndarray]:
    """The original double-loop key-switch of ``c`` (shape ``(L, *batch, n)``).

    Embeds each RNS digit into every augmented limb, transforms limb by
    limb, accumulates both inner products one ``(digit, limb)`` pair at
    a time, then inverse-transforms and rescales each accumulator.
    """
    params = ctx.params
    aug = ctx.aug_basis
    ct_moduli = params.ct_moduli
    if c.ndim < 2 or c.shape[0] != len(ct_moduli) or c.shape[-1] != ctx.n:
        raise ValueError(f"expected normal-basis stack, got shape {c.shape}")
    acc0 = np.zeros((len(aug),) + c.shape[1:], dtype=np.uint64)
    acc1 = np.zeros((len(aug),) + c.shape[1:], dtype=np.uint64)
    for i, _qi in enumerate(ct_moduli):
        digit = c[i]  # the i-th RNS digit, an integer in [0, q_i)
        digit_limbs = np.stack([digit % np.uint64(qj) for qj in aug])
        digit_ntt = np.stack(
            [ctx.ntt(qj).forward(digit_limbs[j]) for j, qj in enumerate(aug)]
        )
        for j, qj in enumerate(aug):
            acc0[j] = modadd_vec(
                acc0[j], modmul_vec(digit_ntt[j], ksk.b_ntt[i][j], qj), qj
            )
            acc1[j] = modadd_vec(
                acc1[j], modmul_vec(digit_ntt[j], ksk.a_ntt[i][j], qj), qj
            )
    d0 = aug.rescale_last(
        np.stack([ctx.ntt(qj).inverse(acc0[j]) for j, qj in enumerate(aug)])
    )
    d1 = aug.rescale_last(
        np.stack([ctx.ntt(qj).inverse(acc1[j]) for j, qj in enumerate(aug)])
    )
    return d0, d1
