"""Timing wrappers installed at a layer's lookup site, with self time.

The benchmark measures each layer from outside the library: it replaces
the name a caller looks up (``repro.core.batch.modmul_vec``,
``CheContext.ntt_limbs``, ...) with a wrapper that times the call and
counts its work, and puts the original object back afterwards.  A
wrapper's *self* time is its own duration minus the time of wrappers
nested inside it on the same thread, so the self times of all wrappers
partition the wall time they cover without double counting.

Also here: the percentile, open-loop, peak-memory and sim-gap helpers
the benchmark reports with.
"""

from __future__ import annotations

import asyncio
import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: a counter receives the call's positional arguments and its result and
#: returns the work to add to the probe's counters; a name starting with
#: ``max_`` keeps the largest value seen instead of a sum
Counter = Callable[[Tuple[Any, ...], Any], Dict[str, float]]


@dataclass
class ProbeStats:
    """What one wrapped name recorded."""

    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    maxima: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Frame:
    key: str
    child_s: float = 0.0


class Ledger:
    """Installs timing wrappers and accumulates per-probe statistics.

    ``install`` patches one attribute; ``restore`` puts every original
    back (in reverse order) and checks each is the very object it
    replaced.  Statistics survive ``restore`` until ``reset``.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, ProbeStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(
        self,
        owner: Any,
        name: str,
        key: str,
        counter: Optional[Counter] = None,
        split: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Wrap ``owner.name`` and book its calls under ``key``.

        ``split=(outer, alt_key)`` books a call under ``alt_key`` instead
        when a ``outer`` probe is active further up the same thread's
        stack (the netsim drains inside the partition planner).
        """
        original = vars(owner)[name]
        if not callable(original):
            raise TypeError(f"{owner!r}.{name} is not callable")
        stack_of = self._stack
        record = self._record

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            book = key
            if split is not None and any(f.key == split[0] for f in stack):
                book = split[1]
            frame = _Frame(book)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
            work = counter(args, result) if counter is not None else {}
            record(book, elapsed, elapsed - frame.child_s, work)
            return result

        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def _record(
        self, key: str, incl_s: float, self_s: float, work: Dict[str, float]
    ) -> None:
        with self._lock:
            st = self.stats.setdefault(key, ProbeStats())
            st.calls += 1
            st.incl_s += incl_s
            st.self_s += self_s
            for name, value in work.items():
                if name.startswith("max_"):
                    st.maxima[name] = max(st.maxima.get(name, 0.0), value)
                else:
                    st.counts[name] = st.counts.get(name, 0.0) + value

    def restore(self) -> None:
        """Put every original back; raise if one does not read back."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` of every wrapper now installed."""
        return list(self._patched)

    def reset(self) -> None:
        with self._lock:
            self.stats = {}

    # -- reading -----------------------------------------------------------

    def probe(self, key: str) -> ProbeStats:
        return self.stats.get(key, ProbeStats())

    def _under(self, prefix: str) -> List[ProbeStats]:
        return [
            st
            for key, st in self.stats.items()
            if key == prefix or key.startswith(prefix + ".")
        ]

    def total(self, prefix: str, attr: str) -> float:
        """Sum ``calls`` / ``incl_s`` / ``self_s`` over keys under a prefix."""
        return sum(getattr(st, attr) for st in self._under(prefix))

    def count(self, prefix: str, name: str) -> float:
        return sum(st.counts.get(name, 0.0) for st in self._under(prefix))

    def maximum(self, prefix: str, name: str) -> float:
        return max(
            (st.maxima.get(name, 0.0) for st in self._under(prefix)), default=0.0
        )

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the sample count.

    A tail percentile (``p > 50``) is refused with ``ValueError`` unless
    at least ten samples lie beyond it, so a p90 needs 100 samples.  The
    median is always given.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if p > 50 and n * (100 - p) / 100 < 10:
        raise ValueError(
            f"p{p:g} needs {math.ceil(1000 / (100 - p))} samples, have {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], n


def poisson_arrivals(
    rng: np.random.Generator, rate: float, count: int
) -> List[float]:
    """Due times (s) of ``count`` requests of a Poisson stream at ``rate``.

    The ``count - 1`` gaps are the midpoint quantiles of the exponential
    distribution with mean ``1 / rate``, in an order drawn from ``rng``.
    A short trace of independent draws could hold many more or fewer
    close pairs than a Poisson stream does; this one holds exactly the
    stream's gap distribution, and ``rng`` decides where bursts fall.
    """
    if count < 2:
        raise ValueError("need at least two requests")
    quantiles = (np.arange(count - 1) + 0.5) / (count - 1)
    gaps = rng.permutation(-np.log1p(-quantiles) / rate)
    return [0.0] + list(np.cumsum(gaps))


@dataclass
class LoopRecord:
    """One open-loop request, in seconds from the loop's start."""

    due_s: float
    sent_s: float
    done_s: float = math.nan
    value: Any = None

    @property
    def latency_s(self) -> float:
        """From when the request was *due*, so a stall delays later ones."""
        return self.done_s - self.due_s

    @property
    def late_s(self) -> float:
        """How late the generator sent it."""
        return self.sent_s - self.due_s


async def run_open_loop(
    due: Sequence[float],
    submit: Callable[[int], Awaitable["asyncio.Future[Any]"]],
) -> List[LoopRecord]:
    """Send request ``i`` at ``due[i]`` whatever earlier ones are doing.

    ``submit(i)`` returns a future that resolves to the request's value;
    each record holds the due, sent and resolved times.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    records: List[LoopRecord] = []
    futures = []
    for i, due_s in enumerate(due):
        delay = start + due_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        record = LoopRecord(due_s, loop.time() - start)
        future = await submit(i)

        def done(fut: "asyncio.Future[Any]", record: LoopRecord = record) -> None:
            record.done_s = loop.time() - start

        future.add_done_callback(done)
        records.append(record)
        futures.append(future)
    for record, value in zip(records, await asyncio.gather(*futures)):
        record.value = value
    return records


def reset_peak_rss() -> None:
    """Restart the kernel's RSS high-water mark (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """RSS high-water mark since the last reset (``VmHWM``), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def same_ring_gap(
    wall_s: float,
    sim_s: float,
    wall_shape: Tuple[int, int, int],
    sim_shape: Tuple[int, int, int],
) -> float:
    """Wall ÷ simulated time for one request, only for equal work.

    Both shapes are ``(ring_n, rows, cols)``.  Comparing a software run
    on one ring or shape with a device model on another says nothing
    about either, so a mismatch raises.
    """
    if wall_shape != sim_shape:
        raise ValueError(
            f"wall run {wall_shape} and simulated run {sim_shape} "
            "differ in ring or shape"
        )
    return wall_s / sim_s
