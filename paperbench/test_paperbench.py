"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest paperbench/test_paperbench.py -q
"""

from __future__ import annotations

import asyncio
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ledger import (  # noqa: E402
    Ledger,
    peak_rss_mb,
    percentile,
    poisson_arrivals,
    reset_peak_rss,
    run_open_loop,
    same_ring_gap,
)


# -- percentiles ----------------------------------------------------------------


def test_percentile_gives_median_with_sample_count():
    assert percentile([5.0, 1.0, 3.0], 50) == (3.0, 3)


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError, match="needs 100 samples, have 99"):
        percentile(list(range(99)), 90)
    value, n = percentile(list(range(1, 101)), 90)
    assert (value, n) == (90, 100)  # ten samples lie beyond it


def test_percentile_refuses_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- open loop ------------------------------------------------------------------


def test_poisson_arrivals_repeat_per_seed_and_keep_the_gap_distribution():
    a = poisson_arrivals(np.random.default_rng(7), 1.5, 15)
    b = poisson_arrivals(np.random.default_rng(7), 1.5, 15)
    c = poisson_arrivals(np.random.default_rng(8), 1.5, 15)
    assert a == b and a != c
    assert len(a) == 15 and a[0] == 0.0
    assert np.all(np.diff(a) > 0)
    # another seed reorders the same gaps
    assert sorted(np.diff(a)) == pytest.approx(sorted(np.diff(c)))
    assert a[-1] == pytest.approx(c[-1])


def test_open_loop_times_from_due_and_reports_lateness():
    """A stall in the generator delays the next send; its latency counts
    from when it was due, not from when it was sent."""
    service_s = 0.02

    async def main():
        loop = asyncio.get_running_loop()

        async def submit(i):
            if i == 1:
                time.sleep(0.1)  # the generator stalls while sending 1
            fut = loop.create_future()
            loop.call_later(service_s, fut.set_result, i)
            return fut

        return await run_open_loop([0.0, 0.05, 0.1], submit)

    records = asyncio.run(main())
    assert [r.value for r in records] == [0, 1, 2]
    stalled, after = records[1], records[2]
    assert stalled.late_s < 0.02
    # request 2 was due at 0.1 s but could only be sent after the stall
    assert after.late_s > 0.03
    assert after.latency_s == pytest.approx(after.late_s + service_s, abs=0.015)
    assert after.latency_s > after.done_s - after.sent_s


# -- wrappers -------------------------------------------------------------------


fakelib = types.ModuleType("fakelib")


def _leaf(x):
    time.sleep(0.01)
    return x


fakelib.leaf = _leaf


class Engine:
    def run(self, x):
        time.sleep(0.02)
        return fakelib.leaf(x) + 1


def test_ledger_self_time_excludes_nested_wrappers_and_restores():
    original_run = vars(Engine)["run"]
    led = Ledger()
    led.install(Engine, "run", "a.run", lambda args, res: {"n": res})
    led.install(fakelib, "leaf", "b.leaf")
    assert Engine().run(1) == 2
    led.restore()
    assert vars(Engine)["run"] is original_run
    assert fakelib.leaf is _leaf
    run, leaf = led.probe("a.run"), led.probe("b.leaf")
    assert run.calls == leaf.calls == 1
    assert run.counts == {"n": 2}
    assert run.incl_s == pytest.approx(run.self_s + leaf.incl_s)
    assert led.self_total() == pytest.approx(run.incl_s)


def test_ledger_split_books_calls_under_an_outer_probe_elsewhere():
    led = Ledger()
    led.install(Engine, "run", "plan")
    led.install(fakelib, "leaf", "sim.drain", split=("plan", "sim.plan"))
    try:
        Engine().run(0)
        fakelib.leaf(0)
    finally:
        led.restore()
    assert led.probe("sim.plan").calls == 1
    assert led.probe("sim.drain").calls == 1


def test_probes_restore_the_library_after_a_traced_request():
    """The traced run must leave the untraced library untouched."""
    from repro.core.batch import BatchedHmvp, BatchQueue, EncodedMatrixCache
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params
    from workloads import install_probes

    recorder = Ledger()
    install_probes(recorder)
    originals = recorder.patched()
    recorder.restore()
    assert len(originals) >= 15

    scheme = BfvScheme(toy_params(64), 3, max_pack=8)
    rng = np.random.default_rng(3)
    matrix = rng.integers(-64, 64, (8, 64))
    v = rng.integers(-64, 64, 64)
    led = Ledger()
    install_probes(led)
    try:
        queue = BatchQueue(
            BatchedHmvp(scheme, matrix, cache=EncodedMatrixCache())
        )
        ct = scheme.encrypt_vector(v)
        led.reset()
        start = time.perf_counter()
        queue.submit(ct)
        result = queue.drain().results[0]
        wall = time.perf_counter() - start
    finally:
        led.restore()
    for owner, name, original in originals:
        assert vars(owner)[name] is original, name
    t = scheme.params.plain_modulus
    got = [int(x) % t for x in result.decrypt(scheme)[:8]]
    want = [int(x) % t for x in matrix.astype(object) @ v.astype(object)]
    assert got == want
    assert led.count("keyswitch", "ops") == 7  # one merge per extra row
    assert led.count("pack", "merges") == 7
    assert led.count("batch", "requests") == 1
    assert led.count("ntt", "fwd") > 0 and led.count("ntt", "inv") > 0
    assert 0 < led.self_total() <= wall


def test_same_ring_gap_refuses_unequal_work():
    assert same_ring_gap(2.0, 0.5, (4096, 256, 4096), (4096, 256, 4096)) == 4.0
    with pytest.raises(ValueError):
        same_ring_gap(2.0, 0.5, (128, 256, 4096), (4096, 256, 4096))


def test_peak_rss_restarts_after_a_reset():
    reset_peak_rss()
    block = np.ones(25_000_000)  # 200 MB, touched
    high = peak_rss_mb()
    del block
    reset_peak_rss()
    assert peak_rss_mb() < high - 150
