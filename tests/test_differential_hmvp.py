"""Differential HMVP tests: the engine against independent references.

For randomized shapes — non-power-of-two row counts and the single-row
edge case included — the batched engine
(:meth:`repro.core.batch.BatchedHmvp.multiply_batch`), the one-shot
wrapper (:func:`repro.core.hmvp.hmvp`) and the plaintext oracle
``A @ v (mod t, centered)`` must agree exactly.  The engine's packs must
also equal, per RNS limb, the per-row Algorithm 1 reference in
``tests/oracles/hmvp.py`` (no hoisting, caching or stacking, recursive
pack), across row tiles, ``tile_rows`` and ragged column tiles.

The streamed kernels (fused NTT, dot/extract row stream, pack levels)
cut their stacks into blocks of ``repro.math.ntt.BLOCK_BYTES``; at the
toy ring one real block holds every row, so the block-boundary section
shrinks the budget (one item per block, and a budget that leaves a
ragged last block) and checks each streamed kernel per limb again.
"""

import importlib

import numpy as np
import pytest

from repro.core.batch import BatchedHmvp, EncodedMatrixCache
from repro.core.hmvp import hmvp
from repro.he.lwe import LweCiphertext
from repro.he.packing import pack_stacked_lwes_many
from repro.math.ntt import NegacyclicNtt, fused_limb_ntt
from tests.oracles.hmvp import hmvp_per_row, lwes_per_row
from tests.oracles.packing import pack_lwes_recursive

# the module, not the ``repro.math.ntt`` function the package re-exports
ntt_module = importlib.import_module("repro.math.ntt")

#: (rows, number of vectors) — non-power-of-two and single-row on purpose
SHAPES = [(1, 2), (3, 1), (5, 3), (7, 2), (8, 2), (13, 1)]


def _centered_mod(values, t):
    """Reduce exact integers into the centered residue system mod t."""
    half = t // 2
    return [((int(v) + half) % t) - half for v in values]


def _oracle(matrix, vector, t):
    exact = matrix.astype(object) @ vector.astype(object)
    return _centered_mod(exact, t)


@pytest.mark.parametrize("rows,count", SHAPES)
def test_batch_vs_scalar_vs_plain(scheme128, rows, count):
    rng = np.random.default_rng(0xD1FF + rows * 31 + count)
    cols = scheme128.params.n
    t = scheme128.params.plain_modulus
    matrix = rng.integers(-200, 200, (rows, cols))
    vectors = [rng.integers(-200, 200, cols) for _ in range(count)]
    cts = [scheme128.encrypt_vector(v) for v in vectors]

    engine = BatchedHmvp(scheme128, matrix)
    batched = engine.multiply_batch(cts)
    assert len(batched) == count
    for i, (vector, ct) in enumerate(zip(vectors, cts)):
        want = _oracle(matrix, vector, t)
        got_batch = batched[i].decrypt(scheme128)[:rows]
        got_scalar = hmvp(scheme128, matrix, ct).decrypt(scheme128)[:rows]
        assert _centered_mod(got_batch, t) == want, f"batch path, vec {i}"
        assert _centered_mod(got_scalar, t) == want, f"scalar path, vec {i}"


def test_agreement_with_plaintext_wraparound(scheme128):
    """Entries large enough that some dot products exceed t/2: all three
    implementations must wrap identically (centered residues)."""
    rng = np.random.default_rng(0xD1FF_FFFF)
    cols = scheme128.params.n
    t = scheme128.params.plain_modulus
    bound = int(np.sqrt(t // cols)) * 4  # pushes some sums past t/2
    matrix = rng.integers(-bound, bound, (4, cols))
    vector = rng.integers(-bound, bound, cols)
    ct = scheme128.encrypt_vector(vector)

    want = _oracle(matrix, vector, t)
    engine = BatchedHmvp(scheme128, matrix)
    got_batch = engine.multiply_batch([ct])[0].decrypt(scheme128)[:4]
    got_scalar = hmvp(scheme128, matrix, ct).decrypt(scheme128)[:4]
    assert _centered_mod(got_batch, t) == want
    assert _centered_mod(got_scalar, t) == want


def test_batch_is_order_independent(scheme128):
    """Reversing the batch order permutes the outputs, nothing else —
    requests are independent (no cross-request state)."""
    rng = np.random.default_rng(0xD1FF_0123)
    cols = scheme128.params.n
    matrix = rng.integers(-50, 50, (5, cols))
    vectors = [rng.integers(-50, 50, cols) for _ in range(3)]
    cts = [scheme128.encrypt_vector(v) for v in vectors]

    engine = BatchedHmvp(scheme128, matrix)
    fwd = [r.decrypt(scheme128)[:5].tolist() for r in engine.multiply_batch(cts)]
    rev = [
        r.decrypt(scheme128)[:5].tolist()
        for r in engine.multiply_batch(list(reversed(cts)))
    ]
    assert fwd == list(reversed(rev))


#: (rows, cols, tile_rows): 1 x N, a non-power-of-two row count, m > N
#: (two row tiles), 6-row tiles, and three column tiles whose last is
#: ragged (300 = 128 + 128 + 44)
ORACLE_SHAPES = [
    (1, 128, None),
    (37, 128, None),
    (129, 64, None),
    (20, 128, 6),
    (5, 300, None),
]


def _encrypt_tiles(scheme, vector):
    ring = scheme.params.n
    return [
        scheme.encrypt_vector(vector[start : start + ring])
        for start in range(0, len(vector), ring)
    ]


def _assert_packs_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.count, g.scale_pow2, g.reductions) == (
            w.count, w.scale_pow2, w.reductions
        )
        assert g.ct.basis.moduli == w.ct.basis.moduli
        for limb in range(len(w.ct.basis)):
            assert np.array_equal(g.ct.c0[limb], w.ct.c0[limb]), f"c0 limb {limb}"
            assert np.array_equal(g.ct.c1[limb], w.ct.c1[limb]), f"c1 limb {limb}"


@pytest.mark.parametrize("rows,cols,tile_rows", ORACLE_SHAPES)
def test_engine_packs_match_per_row_oracle(scheme128, rows, cols, tile_rows):
    rng = np.random.default_rng(0x0AC1 + rows * 7 + cols)
    matrix = rng.integers(-100, 100, (rows, cols))
    cts = _encrypt_tiles(scheme128, rng.integers(-100, 100, cols))
    engine = BatchedHmvp(
        scheme128, matrix, cache=EncodedMatrixCache(), tile_rows=tile_rows
    )
    want = hmvp_per_row(scheme128, matrix, cts, tile_rows)
    _assert_packs_equal(engine.multiply_tiles(cts).packs, want)


def test_fused_batch_packs_match_per_row_oracle(scheme128):
    """Every request of a fused batch, row tile by row tile."""
    rng = np.random.default_rng(0x0AC2)
    matrix = rng.integers(-100, 100, (11, 128))
    cts = [scheme128.encrypt_vector(rng.integers(-100, 100, 128)) for _ in range(3)]
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache(), tile_rows=4)
    for result, ct in zip(engine.multiply_batch(cts), cts):
        _assert_packs_equal(result.packs, hmvp_per_row(scheme128, matrix, [ct], 4))


# -- block boundaries ---------------------------------------------------------


@pytest.fixture(params=[1, 13000], ids=["one-item-blocks", "ragged-blocks"])
def small_blocks(request, monkeypatch):
    """Shrink the streaming budget so toy shapes cross block boundaries.

    ``1`` byte puts one item in every block; 13000 bytes gives the n=128
    sites 2-6 items per block (dot rows and pack pairs 2 at R = 1, NTT
    polynomials 4 on the augmented basis), so odd counts leave a ragged
    last block.
    """
    monkeypatch.setattr(ntt_module, "BLOCK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("moduli", ["aug", "ct"])
def test_fused_ntt_blocks_match_per_limb(scheme128, small_blocks, moduli):
    basis = getattr(scheme128.ctx, f"{moduli}_basis")
    n = scheme128.params.n
    rng = np.random.default_rng(0xB10C)
    stack = np.stack(
        [rng.integers(0, q, (11, n), dtype=np.uint64) for q in basis]
    )
    fused = fused_limb_ntt(n, basis.moduli)
    fwd, inv = fused.forward(stack), fused.inverse(stack)
    for limb, q in enumerate(basis):
        ref = NegacyclicNtt(n, q)
        assert np.array_equal(fwd[limb], ref.forward(stack[limb])), limb
        assert np.array_equal(inv[limb], ref.inverse(stack[limb])), limb


def test_multiply_one_blocks_match_oracle(scheme128, small_blocks):
    rng = np.random.default_rng(0xB10D)
    matrix = rng.integers(-100, 100, (5, 128))
    ct = scheme128.encrypt_vector(rng.integers(-100, 100, 128))
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache())
    _assert_packs_equal(
        engine.multiply_one(ct).packs, hmvp_per_row(scheme128, matrix, [ct])
    )


def test_fused_batch_blocks_match_oracle(scheme128, small_blocks):
    rng = np.random.default_rng(0xB10E)
    matrix = rng.integers(-100, 100, (7, 128))
    cts = [scheme128.encrypt_vector(rng.integers(-100, 100, 128)) for _ in range(3)]
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache())
    for result, ct in zip(engine.multiply_batch(cts), cts):
        _assert_packs_equal(result.packs, hmvp_per_row(scheme128, matrix, [ct]))


def test_column_tiles_blocks_match_oracle(scheme128, small_blocks):
    rng = np.random.default_rng(0xB10F)
    matrix = rng.integers(-100, 100, (5, 3 * 128 - 17))
    cts = _encrypt_tiles(scheme128, rng.integers(-100, 100, matrix.shape[1]))
    engine = BatchedHmvp(scheme128, matrix, cache=EncodedMatrixCache())
    assert engine.encoded.col_tiles == 3
    _assert_packs_equal(
        engine.multiply_tiles(cts).packs, hmvp_per_row(scheme128, matrix, cts)
    )


def test_multiply_partial_blocks_match_oracle(scheme128, small_blocks):
    """The unpacked partial LWEs, row by row, across two row tiles."""
    rng = np.random.default_rng(0xB110)
    matrix = rng.integers(-100, 100, (9, 2 * 128))
    cts = _encrypt_tiles(scheme128, rng.integers(-100, 100, matrix.shape[1]))
    engine = BatchedHmvp(
        scheme128, matrix, cache=EncodedMatrixCache(), tile_rows=5
    )
    partials = engine.multiply_partial(cts)
    want = lwes_per_row(scheme128, matrix, cts)
    got_b = np.concatenate([b for b, _a in partials], axis=1)
    got_a = np.concatenate([a for _b, a in partials], axis=1)
    assert got_b.shape[1] == len(want) == 9
    for row, lwe in enumerate(want):
        for limb in range(len(lwe.basis)):
            assert got_b[limb, row] == lwe.b[limb], (row, limb)
            assert np.array_equal(got_a[limb, row], lwe.a[limb]), (row, limb)


def test_pack_many_blocks_match_recursive(scheme128, small_blocks):
    """Three lock-step pack trees of 5 LWEs (padded to 8) each."""
    ctx, basis = scheme128.ctx, scheme128.ctx.ct_basis
    n, reqs, count = scheme128.params.n, 3, 5
    rng = np.random.default_rng(0xB111)
    b = np.stack([rng.integers(0, q, (reqs, count), dtype=np.uint64) for q in basis])
    a = np.stack(
        [rng.integers(0, q, (reqs, count, n), dtype=np.uint64) for q in basis]
    )
    got = pack_stacked_lwes_many(ctx, basis, b, a, scheme128.galois_keys)
    for r in range(reqs):
        lwes = [
            LweCiphertext(ctx, basis, b[:, r, i], a[:, r, i]) for i in range(count)
        ]
        _assert_packs_equal(
            [got[r]], [pack_lwes_recursive(lwes, scheme128.galois_keys)]
        )
