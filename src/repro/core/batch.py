"""Matrix-resident batched HMVP: one plaintext matrix, many vectors.

CHAM's deployment story (Section V) is *many vectors against one
resident matrix* — HeteroLR streams thousands of mini-batches through
the same weight layout, Beaver triple generation streams vectors through
fixed tiles, and the paper's introduction cites batching as the standard
amortization ("up to 4096 encrypted images can be evaluated
simultaneously").  This module serves that shape:

* :class:`EncodedMatrix` — each row tile is Eq. 1-encoded and
  forward-NTT'd **once**, stored per RNS limb as a frozen
  ``(L_aug, rows, n)`` stack (the URAM-resident staging of
  Section III-C), keyed by a content fingerprint;
* :class:`EncodedMatrixCache` — a thread-safe LRU over fingerprints, so
  repeat engines for the same matrix skip encoding entirely
  (``batch.cache.hit`` / ``batch.cache.miss`` counters);
* :class:`BatchedHmvp` — the one HMVP engine: hoists each vector
  ciphertext's forward NTT once per request, streams the rows of a tile
  for every request of a batch through one vectorized
  dot/INTT/rescale/extract kernel in cache-sized row blocks, aggregates
  partial LWEs across column tiles, and emits one batched pack per row
  tile;
* :class:`BatchQueue` — ``submit``/``drain`` request queue that maps a
  drained batch onto :class:`repro.hw.runtime.JobScheduler` engines so
  the simulator prices the batched schedule.

Functionally everything is exact (bit-identical per RNS limb to the
per-row Algorithm 1 reference in ``tests/oracles/``); the op-count
deltas feed the performance model and ``benchmarks/bench_batch.py``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..he.bfv import BfvScheme
from ..he.packing import pack_stacked_lwes, pack_stacked_lwes_many
from ..he.params import CheParams
from ..he.rlwe import RlweCiphertext
from ..hw.runtime import Job, JobScheduler, QueueReport
from ..math.modular import modadd_vec, modmul_vec, modneg_vec
from ..math.ntt import block_len, freeze_array
from ..math.rns import RnsBasis
from .hmvp import HmvpOpCount, HmvpResult

__all__ = [
    "matrix_fingerprint",
    "EncodedMatrix",
    "EncodedMatrixCache",
    "MATRIX_CACHE",
    "encode_matrix",
    "BatchedHmvp",
    "BatchDrainReport",
    "BatchQueue",
]


def matrix_fingerprint(
    matrix: np.ndarray, params: CheParams, tile_rows: int = 0
) -> str:
    """Content fingerprint of an encoded matrix.

    Hashes the matrix residues mod ``t`` (what the encoding actually
    depends on, so ``uint64`` 2**64 - 1 and ``int64`` -1 never alias)
    together with everything else the NTT-domain encoding depends on
    (shape, ring degree, plaintext modulus, RNS moduli, tiling) — a
    mutated matrix or a different parameter set can never alias a
    cached encoding.  Raises ``TypeError`` for a non-integer matrix.
    """
    return _digest(
        _matrix_residues(matrix, params.plain_modulus), params, tile_rows
    )


def _digest(residues: np.ndarray, params: CheParams, tile_rows: int) -> str:
    """:func:`matrix_fingerprint` of already-reduced residues."""
    h = hashlib.sha256()
    meta = (
        residues.shape,
        params.n,
        params.plain_modulus,
        tuple(params.ct_moduli),
        params.special_modulus,
        tile_rows,
    )
    h.update(repr(meta).encode())
    h.update(np.ascontiguousarray(residues).tobytes())
    return h.hexdigest()


def _matrix_residues(matrix: np.ndarray, t: int) -> np.ndarray:
    """The (non-empty, 2-D) matrix reduced exactly into ``[0, t)``, as ``uint64``.

    Integer dtypes reduce in their own signedness, widened to 64 bits
    (never through a lossy cast); object arrays must hold integers and
    reduce as Python ints.  Float, complex and bool matrices raise
    ``TypeError`` rather than being silently truncated.  Reducing
    residues again is the identity, so fingerprints of a matrix and of
    its residues agree.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if arr.size == 0:
        raise ValueError(f"nothing to pack: empty {arr.shape} matrix")
    if arr.dtype == object:
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in arr.flat
        ):
            raise TypeError("matrix entries must be integers")
        return np.mod(arr, t).astype(np.uint64)
    if np.issubdtype(arr.dtype, np.signedinteger):
        # residues are non-negative, so the int64 bits read as uint64
        return np.mod(arr.astype(np.int64, copy=False), np.int64(t)).view(np.uint64)
    if np.issubdtype(arr.dtype, np.unsignedinteger):
        return np.mod(arr.astype(np.uint64, copy=False), np.uint64(t))
    raise TypeError(f"matrix must have an integer dtype, got {arr.dtype}")


def _resolve_tile_rows(tile_rows: Optional[int], ring: int) -> int:
    """Rows per row tile: ``None`` means the ring degree ``N``."""
    if tile_rows is None:
        return ring
    if not 1 <= tile_rows <= ring:
        raise ValueError(f"tile_rows {tile_rows} must be in 1..ring degree {ring}")
    return tile_rows


def _encode_rows_eq1(reduced: np.ndarray, n: int, t: int) -> np.ndarray:
    """Vectorized Eq. 1 row encoding of a ``(rows, width)`` residue block.

    ``reduced`` holds the entries already reduced into ``[0, t)``.
    Row-for-row identical to ``CoefficientEncoder.encode_row``:
    ``pt^(A_i) = A_{i,0} - sum_{j>=1} A_{i,j} X^{N-j}``.
    """
    rows, width = reduced.shape
    coeffs = np.zeros((rows, n), dtype=np.uint64)
    coeffs[:, 0] = reduced[:, 0]
    if width > 1:
        neg = (np.uint64(t) - reduced[:, 1:]) % np.uint64(t)
        coeffs[:, n - (width - 1) :] = neg[:, ::-1]
    return coeffs


def _centered_limbs(coeffs: np.ndarray, t: int, basis: RnsBasis) -> np.ndarray:
    """Centered lift + per-limb reduction of plaintext coefficients.

    Matches ``plaintext_limbs`` (Plaintext.centered then
    signed_to_limbs) for stacked ``(rows, n)`` input.
    """
    half = t // 2
    c = coeffs.astype(np.int64)
    signed = np.where(c > half, c - t, c)
    return np.stack([np.mod(signed, q).astype(np.uint64) for q in basis])


@dataclass
class EncodedMatrix:
    """A matrix encoded once, resident in the NTT domain per row tile.

    ``tiles[(rt, ct)]`` is the frozen ``(L_aug, rows_in_tile, n)`` stack
    of forward-transformed Eq. 1 row encodings for row tile ``rt``
    against column tile ``ct``.
    """

    fingerprint: str
    shape: Tuple[int, int]
    ring_n: int
    tile_rows: int
    tiles: Dict[Tuple[int, int], np.ndarray] = field(repr=False)
    encode_ops: HmvpOpCount = field(default_factory=HmvpOpCount)

    @property
    def row_tiles(self) -> int:
        return -(-self.shape[0] // self.tile_rows)

    @property
    def col_tiles(self) -> int:
        return -(-self.shape[1] // self.ring_n)

    def row_tile_rows(self, rt: int) -> int:
        start = rt * self.tile_rows
        return min(self.tile_rows, self.shape[0] - start)

    @classmethod
    def encode(
        cls,
        scheme: BfvScheme,
        matrix: np.ndarray,
        tile_rows: Optional[int] = None,
    ) -> "EncodedMatrix":
        """Encode ``matrix`` (integer entries) into NTT-domain row tiles.

        The matrix is reduced mod ``t`` once, exactly; the residues are
        both hashed into the fingerprint and encoded.  Raises
        ``TypeError`` for float, complex or bool matrices instead of
        truncating them.
        """
        t = scheme.params.plain_modulus
        residues = _matrix_residues(matrix, t)
        m, n_cols = residues.shape
        ring = scheme.params.n
        tile_rows = _resolve_tile_rows(tile_rows, ring)
        ctx = scheme.ctx
        aug = ctx.aug_basis
        tiles: Dict[Tuple[int, int], np.ndarray] = {}
        with obs.span("batch.encode", rows=m, cols=n_cols):
            for rt, row_start in enumerate(range(0, m, tile_rows)):
                row_block = residues[row_start : row_start + tile_rows]
                for ct, col_start in enumerate(range(0, n_cols, ring)):
                    block = row_block[:, col_start : col_start + ring]
                    coeffs = _encode_rows_eq1(block, ring, t)
                    limbs = _centered_limbs(coeffs, t, aug)
                    tiles[(rt, ct)] = freeze_array(ctx.ntt_limbs(limbs, aug))
        col_tiles = -(-n_cols // ring)
        return cls(
            fingerprint=_digest(residues, scheme.params, tile_rows),
            shape=(m, n_cols),
            ring_n=ring,
            tile_rows=tile_rows,
            tiles=tiles,
            encode_ops=HmvpOpCount(ntts=m * len(aug) * col_tiles),
        )


class EncodedMatrixCache:
    """Thread-safe LRU of :class:`EncodedMatrix` entries by fingerprint.

    The fingerprint covers the matrix content, so mutating a matrix and
    re-submitting it *misses* (no stale NTT-domain rows are ever
    served); re-submitting unchanged content hits and skips the encode.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, EncodedMatrix]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(
        scheme: BfvScheme,
        matrix: np.ndarray,
        tile_rows: Optional[int] = None,
    ) -> str:
        """The cache key :meth:`get_or_encode` would file ``matrix`` under.

        The elastic cluster layer uses this to *migrate* an already-encoded
        entry between node caches (install under the same key on the
        destination) without ever re-running the encode.
        """
        effective_tile = _resolve_tile_rows(tile_rows, scheme.params.n)
        return matrix_fingerprint(matrix, scheme.params, effective_tile)

    def peek(self, key: str) -> Optional[EncodedMatrix]:
        """Look up an entry by key without encoding on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def install(self, key: str, entry: EncodedMatrix) -> bool:
        """Adopt an already-encoded entry (cache-to-cache migration).

        Returns ``True`` when the entry was newly installed, ``False``
        when the key was already resident (the move was unnecessary).
        Never encodes; never counts as a hit or a miss.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def get_or_encode(
        self,
        scheme: BfvScheme,
        matrix: np.ndarray,
        tile_rows: Optional[int] = None,
    ) -> EncodedMatrix:
        # reduce once: the residues are both the key and the encode input
        params = scheme.params
        residues = _matrix_residues(matrix, params.plain_modulus)
        key = _digest(residues, params, _resolve_tile_rows(tile_rows, params.n))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is not None:
            obs.inc("batch.cache.hit")
            return entry
        obs.inc("batch.cache.miss")
        # encode outside the lock: concurrent misses on the same key do
        # redundant work but never block each other or corrupt the map
        encoded = EncodedMatrix.encode(scheme, residues, tile_rows=tile_rows)
        with self._lock:
            self.misses += 1
            self._entries[key] = encoded
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return encoded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache (what :class:`BatchedHmvp` uses unless an
#: explicit cache is passed).
MATRIX_CACHE = EncodedMatrixCache()


def encode_matrix(
    scheme: BfvScheme,
    matrix: np.ndarray,
    *,
    cache: Optional[EncodedMatrixCache] = None,
    tile_rows: Optional[int] = None,
) -> EncodedMatrix:
    """Encode (or fetch from cache) the NTT-domain row tiles of a matrix."""
    target = cache if cache is not None else MATRIX_CACHE
    return target.get_or_encode(scheme, matrix, tile_rows=tile_rows)


class BatchedHmvp:
    """Apply one plaintext matrix to many encrypted vectors.

    The single HMVP engine: :func:`repro.core.hmvp.hmvp` and
    :class:`repro.core.hmvp.TiledHmvp` are thin wrappers over it.

    Parameters
    ----------
    scheme:
        The HE scheme (keys included).
    matrix:
        ``(m, n_cols)``, any shape: rows are cut into row tiles of at
        most ``N`` (one pack each) and columns into ``ceil(n_cols / N)``
        column tiles, in which case requests supply one vector
        ciphertext per column tile (see :meth:`multiply_tiles`).
    cache:
        Encoded-matrix cache; defaults to the module :data:`MATRIX_CACHE`.
    tile_rows:
        Rows per row tile, in ``1..N`` (default ``N``).
    """

    def __init__(
        self,
        scheme: BfvScheme,
        matrix: Sequence[Sequence[int]],
        *,
        cache: Optional[EncodedMatrixCache] = None,
        tile_rows: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self.matrix = matrix
        self.encoded = encode_matrix(
            scheme, matrix, cache=cache, tile_rows=tile_rows
        )
        self.encode_ops = self.encoded.encode_ops

    @property
    def shape(self) -> "tuple[int, int]":
        return tuple(self.matrix.shape)

    # -- per-request kernels ---------------------------------------------------

    def _hoist(self, cts: Sequence[RlweCiphertext]) -> np.ndarray:
        """Forward NTT of ``R`` vector ciphertexts, once per request.

        Returns the stacked components ``(L_aug, 2, R, n)``.
        """
        ctx = self.scheme.ctx
        aug = ctx.aug_basis
        with obs.span("NTT", limbs=len(aug), requests=len(cts)):
            for ct in cts:
                if not ct.is_augmented:
                    raise ValueError("vector ciphertext must be augmented")
            # (2, R, L_aug, n) -> (L_aug, 2, R, n): one fused transform
            comps = np.array([[ct.c0 for ct in cts], [ct.c1 for ct in cts]])
            return ctx.ntt_limbs(comps.transpose(2, 0, 1, 3), aug)

    def _dot_extract(
        self, rt: int, comps: Sequence[np.ndarray]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Row tile ``rt`` against ``R`` requests, streamed by row block.

        Pipeline stages 1-4 (dot, INTT, rescale, extract) over the
        tile's ``(L_aug, rows, n)`` column-tile stacks and the hoisted
        ``(L_aug, 2, R, n)`` components ``comps[c]`` of each column tile
        ``c``.  Rows stream through in blocks of :func:`block_len` rows
        (like CHAM's rows through its macro-pipeline): each block's
        product stack is transformed, rescaled, extracted and summed over
        column tiles as LWEs while it is cache-resident, then written
        into the preallocated outputs, so the ``(L_aug, 2, R, rows, n)``
        product stack of the whole tile never exists.  Returns the
        stacked partial LWEs ``(b (L, R, rows), a (L, R, rows, n))``,
        exactly what the pack tree consumes.
        """
        ctx = self.scheme.ctx
        aug = ctx.aug_basis
        tiles = [
            self.encoded.tiles[(rt, c)] for c in range(self.encoded.col_tiles)
        ]
        naug, rows, n = tiles[0].shape
        reqs = comps[0].shape[2]
        b = np.empty((naug - 1, reqs, rows), dtype=np.uint64)
        a = np.empty((naug - 1, reqs, rows, n), dtype=np.uint64)
        aug_col = aug.modulus_column.reshape(-1, 1, 1, 1, 1)
        ct_col = ctx.ct_basis.modulus_column.reshape(-1, 1, 1, 1)
        step = block_len(naug * 2 * reqs * n * a.itemsize)
        with obs.span("batch.dot", rows=rows, requests=reqs):
            for lo in range(0, rows, step):
                hi = min(lo + step, rows)
                for c, (tile, comp) in enumerate(zip(tiles, comps)):
                    with obs.span("MULTPOLY", rows=hi - lo, limbs=naug):
                        # (L_aug, 1, 1, rb, n) x (L_aug, 2, R, 1, n)
                        prods = modmul_vec(
                            tile[:, np.newaxis, np.newaxis, lo:hi],
                            comp[..., np.newaxis, :],
                            aug_col,
                        )
                    with obs.span("INTT", rows=hi - lo, limbs=naug):
                        d = ctx.intt_limbs(prods, aug)
                    with obs.span("RESCALE+EXTRACT", rows=hi - lo):
                        r = aug.rescale_last(d)  # (L, 2, R, rb, n)
                        # vectorized EXTRACTLWES at index 0: b = c0[..0];
                        # a[0] = c1[..0], a[j] = -c1[..n-j] for j >= 1
                        pb = r[:, 0, ..., 0]
                        pa = np.empty_like(r[:, 1])
                        pa[..., 0] = r[:, 1, ..., 0]
                        pa[..., 1:] = modneg_vec(r[:, 1, ..., :0:-1], ct_col)
                        if c:  # column-tile partials aggregate as LWEs
                            pb = modadd_vec(b[:, :, lo:hi], pb, ct_col[..., 0])
                            pa = modadd_vec(a[:, :, lo:hi], pa, ct_col)
                        b[:, :, lo:hi] = pb
                        a[:, :, lo:hi] = pa
        return b, a

    def request_op_count(self) -> HmvpOpCount:
        """Operation counts of one request against the resident matrix."""
        m, n_cols = self.matrix.shape
        limbs = len(self.scheme.ctx.ct_basis)
        limbs_aug = limbs + 1
        ring = self.encoded.ring_n
        ops = HmvpOpCount()
        for col_start in range(0, n_cols, ring):
            width = min(ring, n_cols - col_start)
            ops = ops + HmvpOpCount.for_cached_dot_products(m, width, limbs_aug)
        if self.encoded.col_tiles > 1:
            ops.lwe_additions += m * (self.encoded.col_tiles - 1)
        for rt in range(self.encoded.row_tiles):
            ops = ops + HmvpOpCount.for_pack(
                self.encoded.row_tile_rows(rt), limbs, limbs_aug
            )
        return ops

    # -- public entry points ---------------------------------------------------

    def hoist(
        self, ct: RlweCiphertext
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Public hoist: the per-request forward NTT of a vector ciphertext.

        The hoisted components depend only on the ciphertext (not on the
        resident matrix), so a caller fanning one request across several
        engines — the cluster scatter path — computes them once and
        passes them to every engine's :meth:`multiply_partial`.
        """
        comp = self._hoist([ct])
        return comp[:, 0, 0], comp[:, 1, 0]

    def multiply_partial(
        self,
        ct_tiles: Optional[Sequence[RlweCiphertext]] = None,
        hoisted_tiles: Optional[
            Sequence["tuple[np.ndarray, np.ndarray]"]
        ] = None,
    ) -> "List[tuple[np.ndarray, np.ndarray]]":
        """Stages 1-4 only: stacked partial LWEs per row tile, unpacked.

        Runs the hoisted dot/rescale/extract kernel and the column-tile
        LWE aggregation but stops *before* PACKLWES, returning
        ``(b (L, rows), a (L, rows, n))`` per row tile.  Every per-row
        value is exactly what the packed path would consume, so a caller
        may merge partials across shards (modular addition for column
        shards, row-order concatenation for row shards) and pack
        centrally — the resulting RLWE ciphertext is bit-identical to
        the unsharded pipeline.  This is the scatter payload of
        :mod:`repro.cluster`.

        Pass either the vector ciphertext tiles or pre-hoisted
        components (from :meth:`hoist`); hoisted wins when both given.
        """
        col_tiles = self.encoded.col_tiles
        if hoisted_tiles is None:
            if ct_tiles is None:
                raise ValueError("need ct_tiles or hoisted_tiles")
            if len(ct_tiles) != col_tiles:
                raise ValueError(
                    f"need {col_tiles} vector tiles for "
                    f"{self.matrix.shape[1]} columns, got {len(ct_tiles)}"
                )
            comps = [self._hoist([ct]) for ct in ct_tiles]
        elif len(hoisted_tiles) != col_tiles:
            raise ValueError(
                f"need {col_tiles} hoisted tiles, got {len(hoisted_tiles)}"
            )
        else:
            comps = [
                np.stack(pair, axis=1)[:, :, np.newaxis]
                for pair in hoisted_tiles
            ]
        obs.inc("core.hmvp.dot_products", self.matrix.shape[0] * col_tiles)
        partials = []
        for rt in range(self.encoded.row_tiles):
            b, a = self._dot_extract(rt, comps)
            partials.append((b[:, 0], a[:, 0]))
        return partials

    def multiply_tiles(
        self, ct_tiles: Sequence[RlweCiphertext]
    ) -> HmvpResult:
        """Full Alg. 1 for one request (one ciphertext per column tile)."""
        ctx = self.scheme.ctx
        packs = [
            pack_stacked_lwes(ctx, ctx.ct_basis, b, a, self.scheme.galois_keys)
            for b, a in self.multiply_partial(ct_tiles)
        ]
        m, n_cols = self.matrix.shape
        return HmvpResult(
            packs=packs, rows=m, cols=n_cols, ops=self.request_op_count()
        )

    def multiply_one(self, ct_v: RlweCiphertext) -> HmvpResult:
        """Full Alg. 1 for one vector against the cached matrix."""
        if self.encoded.col_tiles != 1:
            raise ValueError(
                "matrix has multiple column tiles; use multiply_tiles"
            )
        return self.multiply_tiles([ct_v])

    def multiply_batch(
        self, cts: Sequence[RlweCiphertext]
    ) -> List[HmvpResult]:
        """Apply the cached matrix to a batch of encrypted vectors.

        Stacks all ``R`` requests along a batch axis, so every pipeline
        stage — hoist, dot, INTT, rescale/extract, pack — runs once per
        row tile instead of once per request.  Bit-identical per request
        to :meth:`multiply_one`.
        """
        if self.encoded.col_tiles != 1:
            raise ValueError(
                "matrix has multiple column tiles; use multiply_tiles "
                "per request"
            )
        if not cts:
            return []
        ctx = self.scheme.ctx
        m, n_cols = self.matrix.shape
        obs.inc("batch.requests", len(cts))
        with obs.span("batch.batch", requests=len(cts)):
            comps = [self._hoist(cts)]
            tile_packs = [
                pack_stacked_lwes_many(
                    ctx,
                    ctx.ct_basis,
                    *self._dot_extract(rt, comps),
                    self.scheme.galois_keys,
                )
                for rt in range(self.encoded.row_tiles)
            ]
        obs.inc("core.hmvp.dot_products", m * len(cts))
        ops = self.request_op_count()
        return [
            HmvpResult(
                packs=[packs[ri] for packs in tile_packs],
                rows=m,
                cols=n_cols,
                ops=ops,
            )
            for ri in range(len(cts))
        ]

    def make_jobs(
        self,
        request_ids: Sequence[int],
        batch_id: Optional[int] = None,
        ctxs: Optional[Sequence[Optional[obs.TraceContext]]] = None,
    ) -> List[Job]:
        """Simulator jobs for a batch: one per ``(request, row tile)``.

        The engine-worker API shared by :class:`BatchQueue` and the
        serving layer (:mod:`repro.serve`): every consumer prices a
        drained batch with identical job shapes, so scheduler reports
        and RAS accounting are comparable across entry points.
        ``ctxs`` (parallel to ``request_ids``) tags each request's jobs
        with its trace context so runtime attempt spans join the trace.
        """
        jobs = []
        for idx, rid in enumerate(request_ids):
            ctx = ctxs[idx] if ctxs is not None else None
            for rt in range(self.encoded.row_tiles):
                jobs.append(
                    Job(
                        job_id=rid * self.encoded.row_tiles + rt,
                        rows=self.encoded.row_tile_rows(rt),
                        col_tiles=self.encoded.col_tiles,
                        batch_id=batch_id,
                        ctx=ctx,
                    )
                )
        return jobs

    def amortized_op_count(self, batch: int) -> HmvpOpCount:
        """Total ops for a batch, including the one-time encode."""
        total = HmvpOpCount()
        for name in vars(total):
            setattr(total, name, getattr(self.encode_ops, name))
        per_vec = self.request_op_count()
        for _ in range(batch):
            total = total + per_vec
        return total


@dataclass
class BatchDrainReport:
    """Results of one queue drain plus the simulator's pricing of it."""

    request_ids: List[int]
    results: List[HmvpResult]
    schedule: QueueReport


class BatchQueue:
    """Request queue in front of a :class:`BatchedHmvp` engine.

    ``submit`` enqueues encrypted vectors; ``drain`` runs the whole
    pending batch through the engine's fused batch path and maps it
    onto the hardware simulator's :class:`JobScheduler` — one
    :class:`Job` per (request, row tile), tagged with a batch id — so
    every drain yields both the exact ciphertext results and the priced
    schedule (makespan, per-engine utilization).
    """

    def __init__(
        self,
        engine: BatchedHmvp,
        scheduler: Optional[JobScheduler] = None,
        on_drain: Optional[Callable[["BatchDrainReport"], None]] = None,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler or JobScheduler()
        #: called with each non-empty drain's report (metrics export,
        #: serving-layer completion hooks)
        self.on_drain = on_drain
        self._pending: List[
            Tuple[int, RlweCiphertext, Optional[obs.TraceContext]]
        ] = []
        self._next_request = 0
        self._next_batch = 0

    @property
    def depth(self) -> int:
        return len(self._pending)

    def submit(
        self, ct_v: RlweCiphertext, ctx: Optional[obs.TraceContext] = None
    ) -> int:
        """Enqueue one encrypted vector; returns its request id.

        Each request gets a trace context — the one passed in (a serving
        layer that already minted a trace root), the ambient one, or a
        fresh root — so its simulator jobs are attributable end to end.
        """
        if not ct_v.is_augmented:
            raise ValueError("vector ciphertext must be augmented")
        if ctx is None and obs.TRACER.enabled:
            ctx = obs.current_context() or obs.TRACER.new_trace()
        request_id = self._next_request
        self._next_request += 1
        self._pending.append((request_id, ct_v, ctx))
        obs.inc("batch.queue.submitted")
        obs.set_gauge("batch.queue.depth", len(self._pending))
        return request_id

    def drain(self, max_requests: Optional[int] = None) -> BatchDrainReport:
        """Serve pending requests as one batch.

        ``max_requests`` caps the drained batch (FIFO prefix) — the
        micro-batching building block the serving layer's adaptive
        ``max_batch`` policy rides on; ``None`` drains everything.
        """
        if max_requests is not None and max_requests < 0:
            raise ValueError(f"max_requests must be >= 0, got {max_requests}")
        if max_requests is not None and max_requests < len(self._pending):
            pending = self._pending[:max_requests]
            self._pending = self._pending[max_requests:]
        else:
            pending, self._pending = self._pending, []
        obs.set_gauge("batch.queue.depth", len(self._pending))
        batch_id = self._next_batch
        self._next_batch += 1
        if not pending:
            return BatchDrainReport(
                request_ids=[],
                results=[],
                schedule=QueueReport(
                    completions={}, makespan=0, per_engine_busy=[]
                ),
            )
        with obs.span("batch.drain", requests=len(pending), batch=batch_id):
            results = self.engine.multiply_batch(
                [ct for _rid, ct, _ctx in pending]
            )
            jobs = self.engine.make_jobs(
                [rid for rid, _ct, _ctx in pending],
                batch_id=batch_id,
                ctxs=[ctx for _rid, _ct, ctx in pending],
            )
            schedule = self.scheduler.schedule(jobs)
        obs.observe("batch.drain.requests", len(pending))
        obs.observe("batch.drain.makespan_cycles", schedule.makespan)
        report = BatchDrainReport(
            request_ids=[rid for rid, _ct, _ctx in pending],
            results=results,
            schedule=schedule,
        )
        if self.on_drain is not None:
            self.on_drain(report)
        return report
