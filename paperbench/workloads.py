"""The three paper-scale HMVP workloads, all at N = 4096 (``cham_params``).

Every workload draws its matrix and vectors (entries in [-64, 64)) and
its key seed from the benchmark seed; the library only ever sees the
generated inputs.  Vectors are encrypted before the timed phase, since
encryption is client work.

* ``tall-256`` — 256 x 4096, one column tile, closed loop with one
  client: ``BatchQueue.submit`` + ``drain`` on a warm ``BatchedHmvp``,
  priced by ``JobScheduler``.  255 key-switching merges per request and
  a ~50 MB product stack: where row streaming and the pack tree show.
* ``serve-32`` — 32 x 4096 through ``HmvpServer`` (2 engines,
  micro-batches of up to 4), open loop with Poisson arrivals at 1.5
  req/s, about half of saturation on a 2-core box.  Exercises queueing
  and the fused lock-step batch path on stacks small enough that row
  streaming should change nothing.  The arrival trace is the same for
  every seed (the seed varies keys, matrix and vectors): a run holds
  under 20 requests, and drawing the trace per seed moved the median
  latency by ~15% and peak RSS by ~25% between seeds, depending on
  whether a burst made requests overlap on the two engines or share a
  micro-batch.
* ``cluster-mesh`` — 32 x 8192 (two column tiles) through
  ``ClusterExecutor`` on a 4-node mesh, closed loop with one client.
  Host time goes mostly to the network simulator and set-up to the
  comm-priced partition planner: where a netsim or planner speed-up
  shows and the other two workloads should not move.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import executor as cluster_executor
from repro.cluster.executor import ClusterConfig, ClusterExecutor
from repro.cluster.interconnect import ClusterInterconnect
from repro.cluster.partition import PartitionPlanner
from repro.core import batch as core_batch
from repro.core.batch import BatchedHmvp, BatchQueue, EncodedMatrixCache
from repro.core.hmvp import HmvpResult
from repro.he import keyswitch as he_keyswitch
from repro.he import packing as he_packing
from repro.he.bfv import BfvScheme
from repro.he.context import CheContext
from repro.he.params import cham_params
from repro.hw.arch import cham_default_config
from repro.hw.netsim import NetworkSimulator
from repro.serve.server import HmvpServer, RequestStatus, ServeConfig

from ledger import (
    Ledger,
    peak_rss_mb,
    poisson_arrivals,
    reset_peak_rss,
    run_open_loop,
)

CLOCK_HZ = cham_default_config().clock_hz
#: ring degree the hardware model prices jobs at
MODEL_RING = cham_default_config().engine.ntt_unit.n
ENTRY_LOW, ENTRY_HIGH = -64, 64
SERVE_RATE_RPS = 1.5
SERVE_LATENCY_LIMIT_MS = 2000.0
#: seed of the one serve-32 arrival trace (see the module docstring)
SERVE_TRACE_SEED = 0
#: distinct encrypted vectors a closed loop cycles through
VECTOR_POOL = 6


@dataclass
class Sample:
    """One request of a timed phase."""

    latency_s: float
    vector: int  #: index into the workload's vectors
    result: Optional[HmvpResult] = None
    error: str = ""  #: why the request failed before its answer was checked
    late_s: float = 0.0  #: open loop only: sent minus due
    queue_ms: float = 0.0
    execute_ms: float = 0.0
    engine: int = -1
    degraded: bool = False
    retries: int = 0


@dataclass
class Phase:
    """A timed phase: its samples plus the simulator's view of it."""

    samples: List[Sample]
    wall_s: float
    sim_cycles: int  #: simulated makespan of the phase
    sim_busy_frac: float  #: engine busy cycles / (engines * makespan)
    #: cluster only: deltas of the interconnect's lifetime counters
    net: Dict[str, float] = field(default_factory=dict)
    #: RSS high-water of each part of the phase
    rss_peaks_mb: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error)

    @property
    def completed(self) -> int:
        return len(self.samples) - self.failed

    @property
    def sim_goodput_rps(self) -> float:
        if self.sim_cycles == 0:
            return 0.0
        return self.completed / (self.sim_cycles / CLOCK_HZ)

    @classmethod
    def merge(cls, phases: Sequence["Phase"]) -> "Phase":
        """Phases run one after another, as one."""
        cycles = sum(p.sim_cycles for p in phases)
        net: Dict[str, float] = {}
        for p in phases:
            for key, value in p.net.items():
                net[key] = net.get(key, 0.0) + value
        return cls(
            samples=[s for p in phases for s in p.samples],
            wall_s=sum(p.wall_s for p in phases),
            sim_cycles=cycles,
            sim_busy_frac=(
                sum(p.sim_busy_frac * p.sim_cycles for p in phases) / cycles
                if cycles else 0.0
            ),
            net=net,
            rss_peaks_mb=[mb for p in phases for mb in p.rss_peaks_mb],
        )


class Workload:
    """Inputs from a seed; ``build`` + ``warm_up`` are the set-up."""

    name = ""
    rows = 0
    cols = 0
    #: one client waits for each answer; requests are independent
    closed_loop = True

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.matrix = rng.integers(ENTRY_LOW, ENTRY_HIGH, (self.rows, self.cols))
        self.vectors = [
            rng.integers(ENTRY_LOW, ENTRY_HIGH, self.cols)
            for _ in range(self.vector_count(seconds))
        ]
        self.scheme: Optional[BfvScheme] = None
        self.cts: List[Any] = []
        self.t = cham_params().plain_modulus
        self.warm_result: Optional[HmvpResult] = None

    # -- set-up ------------------------------------------------------------

    def vector_count(self, seconds: float) -> int:
        """Distinct vectors; a closed loop cycles through them."""
        return VECTOR_POOL

    def keygen(self) -> BfvScheme:
        return BfvScheme(cham_params(), self.seed, max_pack=self.rows)

    def build(self) -> None:
        raise NotImplementedError

    def encrypt(self) -> None:
        """Encrypt the vectors (client work, never timed)."""
        assert self.scheme is not None
        self.cts = [self.scheme.encrypt_vector(v) for v in self.vectors]

    def warm_up(self) -> None:
        """One request that fills lazy tables; part of set-up."""
        raise NotImplementedError

    def determinism(self) -> Dict[str, object]:
        """Simulated statistics after set-up: equal for equal seeds."""
        raise NotImplementedError

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- checking ----------------------------------------------------------

    def _centered(self, values: Any) -> List[int]:
        half = self.t // 2
        return [((int(x) + half) % self.t) - half for x in values]

    def correct(self, result: HmvpResult, vector: int) -> bool:
        """Decrypted answer equals ``M v mod t`` (centered)."""
        assert self.scheme is not None
        got = result.decrypt(self.scheme)[: self.rows]
        exact = self.matrix.astype(object) @ self.vectors[vector].astype(object)
        return self._centered(got) == self._centered(exact)

    def check(self, phase: Phase) -> None:
        """Decrypt every answer of the phase; a wrong one is a failure."""
        for s in phase.samples:
            if not s.error and (
                s.result is None or not self.correct(s.result, s.vector)
            ):
                s.error = "wrong answer"
            s.result = None

    # -- closed loop -------------------------------------------------------

    def _client_loop(
        self, seconds: float, request: Callable[[Any], HmvpResult]
    ) -> "tuple[List[Sample], float, List[float]]":
        """Requests back to back for ``seconds``; samples, wall, peak RSS."""
        samples: List[Sample] = []
        reset_peak_rss()
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            vec = len(samples) % len(self.cts)
            t0 = time.perf_counter()
            try:
                result: Optional[HmvpResult] = request(self.cts[vec])
                error = ""
            except Exception as exc:  # a failed request is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result, error = None, f"{type(exc).__name__}: {exc}"
            samples.append(
                Sample(time.perf_counter() - t0, vec, result, error)
            )
        return samples, time.perf_counter() - start, [peak_rss_mb()]


class Tall(Workload):
    name = "tall-256"
    rows, cols = 256, 4096

    def build(self) -> None:
        self.scheme = self.keygen()
        engine = BatchedHmvp(
            self.scheme, self.matrix, cache=EncodedMatrixCache()
        )
        self.queue = BatchQueue(engine)

    def _request(self, ct: Any) -> HmvpResult:
        self.queue.submit(ct)
        report = self.queue.drain()
        self._schedules.append(report.schedule)
        return report.results[0]

    def warm_up(self) -> None:
        self._schedules: List[Any] = []
        self.warm_result = self._request(self.cts[0])
        self._warm_schedule = self._schedules.pop()

    def determinism(self) -> Dict[str, object]:
        sched = self._warm_schedule
        return {
            "sim_cycles": sched.makespan,
            "per_engine_busy": list(sched.per_engine_busy),
        }

    def run(self, seconds: float) -> Phase:
        self._schedules = []
        samples, wall, rss = self._client_loop(seconds, self._request)
        cycles = sum(s.makespan for s in self._schedules)
        busy = sum(sum(s.per_engine_busy) for s in self._schedules)
        engines = len(self._schedules[0].per_engine_busy)
        return Phase(samples, wall, cycles, busy / (engines * cycles), rss_peaks_mb=rss)


class Serve(Workload):
    name = "serve-32"
    rows, cols = 32, 4096
    closed_loop = False

    loop: Optional[asyncio.AbstractEventLoop] = None

    def vector_count(self, seconds: float) -> int:
        """One vector per request the open loop sends in ``seconds``."""
        return max(2, round(SERVE_RATE_RPS * seconds))

    def build(self) -> None:
        self.scheme = self.keygen()
        self.loop = asyncio.new_event_loop()
        self.server = HmvpServer(
            self.scheme,
            self.matrix,
            ServeConfig(engines=2, max_batch=4),
            cache=EncodedMatrixCache(),
        )
        self.loop.run_until_complete(self.server.start())

    def _busy(self) -> List[int]:
        return [w.runtime.busy_cycles for w in self.server.workers]

    def warm_up(self) -> None:
        async def one() -> Any:
            return await (await self.server.submit(self.cts[0]))

        assert self.loop is not None
        outcome = self.loop.run_until_complete(one())
        self._warm_cycles = outcome.cycles
        self.warm_result = outcome.result

    def determinism(self) -> Dict[str, object]:
        return {"sim_cycles": self._warm_cycles}

    def run(self, seconds: float) -> Phase:
        """Send every vector once; their count was fixed by ``seconds``."""
        assert self.loop is not None
        trace = np.random.default_rng(SERVE_TRACE_SEED)
        due = poisson_arrivals(trace, SERVE_RATE_RPS, len(self.cts))
        busy0 = self._busy()

        async def submit(i: int) -> "asyncio.Future[Any]":
            return await self.server.submit(self.cts[i])

        # peak RSS per third of the trace, like the closed loops' parts
        rss: List[float] = []

        def mark() -> None:
            rss.append(peak_rss_mb())
            reset_peak_rss()

        for k in (1, 2):
            self.loop.call_later(due[-1] * k / 3, mark)
        reset_peak_rss()
        start = time.perf_counter()
        records = self.loop.run_until_complete(run_open_loop(due, submit))
        wall = time.perf_counter() - start
        mark()
        samples = []
        for i, rec in enumerate(records):
            outcome = rec.value
            s = Sample(
                rec.latency_s,
                i,
                outcome.result,
                late_s=rec.late_s,
                queue_ms=outcome.queue_ms,
                execute_ms=outcome.execute_ms,
                engine=-1 if outcome.engine is None else outcome.engine,
                degraded=outcome.status is RequestStatus.DEGRADED,
                retries=outcome.retries,
            )
            if outcome.status not in (RequestStatus.OK, RequestStatus.DEGRADED):
                s.error = outcome.status.value
            samples.append(s)
        delta = [b - a for a, b in zip(busy0, self._busy())]
        makespan = max(delta)
        busy_frac = sum(delta) / (len(delta) * makespan) if makespan else 0.0
        return Phase(samples, wall, makespan, busy_frac, rss_peaks_mb=rss)

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.server.close())
            self.loop.close()
            self.loop = None


class Cluster(Workload):
    name = "cluster-mesh"
    rows, cols = 32, 8192

    def build(self) -> None:
        self.scheme = self.keygen()
        self.executor = ClusterExecutor(
            self.scheme,
            self.matrix,
            ClusterConfig(
                nodes=4,
                replication=2,
                topology="mesh",
                link_bandwidth=64,
                flit_bytes=256,
            ),
        )

    def encrypt(self) -> None:
        self.cts = [self.executor.encrypt_vector(v) for v in self.vectors]

    def _request(self, tiles: Any) -> HmvpResult:
        before = self._net_faults()
        result = self.executor.execute(tiles)
        if self._net_faults() != before:
            raise RuntimeError("interconnect dropped or duplicated a flit")
        return result

    def _net_faults(self) -> "tuple[int, int]":
        # the fabric is never rebuilt here (no membership churn), so the
        # current simulator epoch holds every flit of the run
        assert self.executor.interconnect is not None
        sim = self.executor.interconnect.sim
        return sim.flits_dropped, sim.duplicates

    def warm_up(self) -> None:
        self.warm_result = self._request(self.cts[0])

    def determinism(self) -> Dict[str, object]:
        rep = self.executor.report()
        net = rep.network
        return {
            "trace_sha256": net["trace_sha256"],
            "flits_injected": net["flits_injected"],
            "flits_delivered": net["flits_delivered"],
            "net_cycles": rep.network_cycles,
            "makespan_cycles": rep.makespan_cycles,
        }

    def _counters(self) -> Dict[str, float]:
        rep = self.executor.report()
        net = rep.network
        busy = list(rep.per_node_busy_cycles.values())
        return {
            "requests": rep.requests,
            "events": net["events"],
            "flits": net["flits_injected"],
            "blocked": net["blocked_attempts"],
            "net_cycles": rep.network_cycles,
            "makespan": rep.makespan_cycles,
            "compute_makespan": rep.compute_makespan_cycles,
            "busy": sum(busy),
            "nodes": len(busy),
        }

    def run(self, seconds: float) -> Phase:
        before = self._counters()
        samples, wall, rss = self._client_loop(seconds, self._request)
        after = self._counters()
        net = {k: after[k] - before[k] for k in after if k != "nodes"}
        busy_frac = net["busy"] / (after["nodes"] * net["compute_makespan"])
        return Phase(samples, wall, int(net["makespan"]), busy_frac, net, rss)


WORKLOADS = {w.name: w for w in (Tall, Serve, Cluster)}


# -- probes -------------------------------------------------------------------


def _polys(x: np.ndarray) -> int:
    """Length-n polynomials in a ``(..., n)`` stack."""
    return int(x.size // x.shape[-1])


def install_probes(ledger: Ledger) -> None:
    """Wrap every measured layer at the name its caller looks up."""

    def elems(args: Any, res: np.ndarray) -> Dict[str, float]:
        return {"elems": res.size}

    ledger.install(core_batch, "modmul_vec", "modular.batch", elems)
    ledger.install(he_keyswitch, "modmul_vec", "modular.keyswitch", elems)
    ledger.install(
        CheContext, "ntt_limbs", "ntt.fwd",
        lambda args, res: {"fwd": _polys(args[1])},
    )
    ledger.install(
        CheContext, "intt_limbs", "ntt.inv",
        lambda args, res: {"inv": _polys(args[1]), "max_bytes": args[1].nbytes},
    )
    ledger.install(
        he_packing, "key_switch_raw", "keyswitch",
        lambda args, res: {"ops": _polys(args[1]) // args[1].shape[0]},
    )

    def one_pack(args: Any, res: Any) -> Dict[str, float]:
        return {"packs": 1, "merges": args[2].shape[1] - 1}

    ledger.install(core_batch, "pack_stacked_lwes", "pack.batch", one_pack)
    ledger.install(cluster_executor, "pack_stacked_lwes", "pack.cluster", one_pack)
    ledger.install(
        core_batch, "pack_stacked_lwes_many", "pack.batch_many",
        lambda args, res: {
            "packs": args[2].shape[1],
            "merges": args[2].shape[1] * (args[2].shape[2] - 1),
        },
    )
    ledger.install(
        BatchedHmvp, "multiply_batch", "batch.multiply",
        lambda args, res: {
            "requests": len(args[1]),
            "rows": len(args[1]) * args[0].matrix.shape[0],
            "batches": 1,
        },
    )
    ledger.install(
        BatchedHmvp, "multiply_partial", "batch.partial",
        lambda args, res: {"requests": 1, "rows": args[0].matrix.shape[0]},
    )
    ledger.install(BatchedHmvp, "hoist", "batch.hoist")
    ledger.install(core_batch, "encode_matrix", "encode")
    ledger.install(PartitionPlanner, "plan", "partition.plan")
    ledger.install(PartitionPlanner, "estimate_total_cycles", "partition.candidate")
    ledger.install(ClusterExecutor, "execute", "cluster.execute")
    ledger.install(ClusterInterconnect, "drain", "cluster.net")
    ledger.install(
        NetworkSimulator, "drain", "netsim.drain",
        split=("partition.plan", "netsim.plan"),
    )


def distinct_batches(samples: Sequence[Sample]) -> float:
    """Engine wall of the served phase: one execute span per batch.

    Requests of one micro-batch share the batch's ``execute_ms`` (it is
    computed once per batch), so distinct ``(engine, execute_ms)`` pairs
    are the batches.
    """
    spans = {(s.engine, s.execute_ms) for s in samples if not s.error}
    return sum(ms for _engine, ms in spans) / 1e3
