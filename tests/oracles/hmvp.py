"""Algorithm 1 row by row from public primitives: the HMVP reference.

Every row is encoded (Eq. 1), multiplied into the vector ciphertext of
its column tile (NTT, MULTPOLY, INTT), rescaled and extracted to an LWE
sample; column-tile partials are summed as LWEs and each row tile is
packed by the recursive Algorithm 3.  Nothing is hoisted, cached or
stacked, so it shares no code path with ``BatchedHmvp`` above the
ring primitives.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.he.bfv import BfvScheme
from repro.he.lwe import LweCiphertext, extract_lwe
from repro.he.packing import PackedResult
from repro.he.rlwe import RlweCiphertext

from .packing import pack_lwes_recursive


def lwes_per_row(
    scheme: BfvScheme,
    matrix: np.ndarray,
    ct_tiles: Sequence[RlweCiphertext],
) -> List[LweCiphertext]:
    """One LWE per row: column-tile partials summed as LWEs, unpacked."""
    matrix = np.asarray(matrix)
    ring = scheme.params.n
    if len(ct_tiles) != -(-matrix.shape[1] // ring):
        raise ValueError("one vector ciphertext per column tile")
    lwes = []
    for row in matrix:
        acc = None
        for tile, ct in enumerate(ct_tiles):
            pt = scheme.encoder.encode_row(row[tile * ring : (tile + 1) * ring])
            lwe = extract_lwe(ct.multiply_plain(pt).rescale(), 0)
            acc = lwe if acc is None else acc + lwe
        lwes.append(acc)
    return lwes


def hmvp_per_row(
    scheme: BfvScheme,
    matrix: np.ndarray,
    ct_tiles: Sequence[RlweCiphertext],
    tile_rows: Optional[int] = None,
) -> List[PackedResult]:
    """One recursive pack per row tile of ``tile_rows`` rows (default ``N``)."""
    matrix = np.asarray(matrix)
    tile_rows = tile_rows or scheme.params.n
    return [
        pack_lwes_recursive(
            lwes_per_row(scheme, matrix[start : start + tile_rows], ct_tiles),
            scheme.galois_keys,
        )
        for start in range(0, matrix.shape[0], tile_rows)
    ]
