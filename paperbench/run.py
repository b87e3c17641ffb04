"""Paper-scale HMVP benchmark: one workload per invocation, N = 4096.

Usage (from the repository root)::

    python3 paperbench/run.py --workload tall-256 --seed 1 --seconds 12 --trace 0

``--trace 0`` is the untraced run: three set-ups (median reported) and a
timed phase of ``--seconds`` (split between the set-ups for the closed
loops); the last line of standard output is a JSON object with the
end-to-end metrics.  ``peak_rss_mb`` is the median over the phase's three
parts of the RSS high-water reached in each part.  ``--trace 1`` splits
the time between an untraced phase and a traced one, in which timing
wrappers sit on every measured layer; it prints the per-layer metrics,
and the traced-vs-untraced difference as ``trace.overhead_frac``.  Both
decrypt every answer against ``M v mod t`` and exit non-zero on any
wrong answer, failed request, or simulated statistic that differs
between two set-ups with the same seed.

Lines before the JSON are the human-readable report: every metric with
its unit, the sample counts, the determinism record, and the paper's
per-layer anchors (measured on the paper's hardware, not this machine).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ledger import Ledger, percentile, same_ring_gap  # noqa: E402
from workloads import (  # noqa: E402
    CLOCK_HZ,
    MODEL_RING,
    SERVE_LATENCY_LIMIT_MS,
    WORKLOADS,
    Phase,
    Serve,
    Workload,
    distinct_batches,
    install_probes,
)

SETUP_REPS = 3

#: rates measured on the paper's hardware, printed beside ours
ANCHORS = {
    "ntt.limb_transforms_per_s": (
        "paper hardware, not this box: 195k NTT/s at 6144 cycles each "
        "(Table III)"
    ),
    "keyswitch.ops_per_s": (
        "paper hardware, not this box: ~620 ops/s on CPU, 65k ops/s on "
        "CHAM (Sec. V-B1)"
    ),
}

Metric = Tuple[float, str]


def set_up(wl: Workload) -> float:
    """Key generation + construction + one warm-up request, timed."""
    t0 = time.perf_counter()
    wl.build()
    built = time.perf_counter() - t0
    wl.encrypt()
    t1 = time.perf_counter()
    wl.warm_up()
    elapsed = built + time.perf_counter() - t1
    assert wl.warm_result is not None
    if not wl.correct(wl.warm_result, 0):
        raise SystemExit(f"{wl.name}: warm-up request decrypted wrong")
    return elapsed


def latencies_ms(phase: Phase) -> List[float]:
    return [1e3 * s.latency_s for s in phase.samples if not s.error]


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, Metric]:
    lats = latencies_ms(phase)
    attempted = len(phase.samples)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(lats), "ms"),
        "throughput_rps": (phase.completed / phase.wall_s, "req/s"),
        # median of the timed parts' high-waters: one part that happens
        # to catch a rare burst does not move it
        "peak_rss_mb": (statistics.median(phase.rss_peaks_mb), "MB"),
        "sim_goodput_rps": (phase.sim_goodput_rps, "req/s"),
        "fail_frac": (phase.failed / attempted, "ratio"),
    }


def report_extras(wl: Workload, phase: Phase) -> List[str]:
    """Lines for what the JSON cannot carry on every workload."""
    lats = latencies_ms(phase)
    lines = [
        "peak RSS per timed part = "
        + ", ".join(f"{mb:.1f}" for mb in phase.rss_peaks_mb) + " MB"
    ]
    try:
        p90, n = percentile(lats, 90)
        lines.append(f"latency_p90_ms = {p90:.1f} ms (n={n})")
    except ValueError as exc:
        lines.append(f"latency_p90_ms = n/a ({exc})")
    if isinstance(wl, Serve):
        # a failed request (rejected, expired, wrong) misses the limit
        within = sum(
            1
            for s in phase.samples
            if not s.error and 1e3 * s.latency_s <= SERVE_LATENCY_LIMIT_MS
        )
        lines.append(
            f"slo_frac = {within / len(phase.samples):.4f} ratio "
            f"(within {SERVE_LATENCY_LIMIT_MS:.0f} ms, n={len(phase.samples)})"
        )
        lines.append(
            "generator lateness max = "
            f"{1e3 * max(s.late_s for s in phase.samples):.2f} ms"
        )
    if not isinstance(wl, Serve):
        # same ring and shape on both sides; serve latencies include
        # queueing, which the device model does not price
        assert wl.scheme is not None
        sim_s = phase.sim_cycles / CLOCK_HZ / len(phase.samples)
        gap = same_ring_gap(
            statistics.median(lats) / 1e3, sim_s,
            (wl.scheme.params.n, *wl.matrix.shape), (MODEL_RING, wl.rows, wl.cols),
        )
        lines.append(
            f"wall/sim gap = {gap:.0f}x (one request, N={wl.scheme.params.n}, "
            f"{wl.rows}x{wl.cols} on both sides)"
        )
    return lines


def layer_metrics(
    wl: Workload,
    led: Ledger,
    setup: Dict[str, float],
    untraced: Phase,
    traced: Phase,
) -> Dict[str, Metric]:
    """Per-layer figures of the traced phase.

    Work and time are per request of the phase (so runs that fit a
    different number of requests compare), rates are work over self
    time, and the ``setup`` figures are per set-up.
    """

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    n = len(traced.samples)

    def per(x: float) -> float:
        return x / n

    mod_self = led.total("modular", "self_s")
    ntt_self = led.total("ntt", "self_s")
    fwd, inv = led.count("ntt", "fwd"), led.count("ntt", "inv")
    ks_self, ks_ops = led.total("keyswitch", "self_s"), led.count("keyswitch", "ops")
    pack_s, merges = led.total("pack", "incl_s"), led.count("pack", "merges")
    batch_s = led.total("batch", "incl_s")
    m: Dict[str, Metric] = {
        "modular.modmul_calls": (per(led.total("modular", "calls")), "count/req"),
        "modular.modmul_self_s": (per(mod_self), "s/req"),
        "modular.modmul_melems_per_s": (
            rate(led.count("modular", "elems") / 1e6, mod_self), "Melem/s"
        ),
        "ntt.fwd_limb_transforms": (per(fwd), "count/req"),
        "ntt.inv_limb_transforms": (per(inv), "count/req"),
        "ntt.self_s": (per(ntt_self), "s/req"),
        "ntt.limb_transforms_per_s": (rate(fwd + inv, ntt_self), "1/s"),
        "ntt.max_operand_mb": (led.maximum("ntt", "max_bytes") / 1e6, "MB"),
        "keyswitch.calls": (per(led.total("keyswitch", "calls")), "count/req"),
        "keyswitch.ops": (per(ks_ops), "count/req"),
        "keyswitch.self_s": (per(ks_self), "s/req"),
        "keyswitch.ops_per_s": (rate(ks_ops, ks_self), "1/s"),
        "pack.calls": (per(led.count("pack", "packs")), "count/req"),
        "pack.merges": (per(merges), "count/req"),
        "pack.s": (per(pack_s), "s/req"),
        "pack.self_s": (per(led.total("pack", "self_s")), "s/req"),
        "pack.merges_per_s": (rate(merges, pack_s), "1/s"),
        "batch.requests": (led.count("batch", "requests"), "count"),
        "batch.request_s": (per(batch_s), "s/req"),
        "batch.self_s": (per(led.total("batch", "self_s")), "s/req"),
        "batch.ms_per_row": (rate(1e3 * batch_s, led.count("batch", "rows")), "ms"),
        "batch.encode_s": (setup["encode_s"], "s"),
    }
    # serving layer, from the outcomes and the generator (0 elsewhere)
    serving = isinstance(wl, Serve)
    ok = [s for s in traced.samples if not s.error] if serving else []
    multiply = led.probe("batch.multiply")
    m.update({
        "serve.queue_ms_p50": (statistics.median([s.queue_ms for s in ok]) if ok else 0.0, "ms"),
        "serve.execute_ms_p50": (
            statistics.median([s.execute_ms for s in ok]) if ok else 0.0, "ms"
        ),
        "serve.batch_size_mean": (
            rate(multiply.counts.get("requests", 0.0),
                 multiply.counts.get("batches", 0.0)) if serving else 0.0,
            "count",
        ),
        "serve.gen_late_ms_max": (
            1e3 * max(s.late_s for s in traced.samples), "ms"
        ),
        "serve.rejected": (
            sum(1 for s in traced.samples if s.error == "rejected"), "count"
        ),
        "serve.deadline": (
            sum(1 for s in traced.samples if s.error == "deadline"), "count"
        ),
        "serve.degraded": (sum(1 for s in traced.samples if s.degraded), "count"),
        "serve.retries": (sum(s.retries for s in traced.samples), "count"),
        "sim.request_cycles": (per(traced.sim_cycles), "cycles"),
        "sim.engine_busy_frac": (traced.sim_busy_frac, "ratio"),
        "sim.goodput_rps": (traced.sim_goodput_rps, "req/s"),
        "partition.plan_s": (setup["plan_s"], "s"),
        "partition.candidates": (setup["candidates"], "count"),
        "cluster.compute_s": (per(batch_s) if traced.net else 0.0, "s/req"),
        "cluster.net_host_s": (per(led.total("cluster.net", "incl_s")), "s/req"),
        "cluster.gather_pack_s": (
            per(led.total("pack.cluster", "incl_s")), "s/req"
        ),
    })
    net = traced.net
    drain_s = led.total("netsim.drain", "incl_s")
    events = net.get("events", 0.0)
    flits = net.get("flits", 0.0)
    m.update({
        "netsim.drain_s": (per(drain_s), "s/req"),
        "netsim.plan_drain_s": (setup["plan_drain_s"], "s"),
        "netsim.events": (per(events), "count/req"),
        "netsim.events_per_s": (rate(events, drain_s), "1/s"),
        "netsim.flits": (per(flits), "count/req"),
        "netsim.blocked_per_flit": (rate(net.get("blocked", 0.0), flits), "ratio"),
        "net.cycles_per_request": (per(net.get("net_cycles", 0.0)), "cycles"),
        "net.cycle_share": (
            rate(net.get("net_cycles", 0.0), net.get("makespan", 0.0)), "ratio"
        ),
    })
    # closure: serving runs requests on two engine threads, so its wall
    # is the engines' busy time (one execute span per micro-batch)
    if serving:
        wall = distinct_batches(traced.samples)
    else:
        wall = sum(s.latency_s for s in traced.samples)
    m["trace.unattributed_frac"] = ((wall - led.self_total()) / wall, "ratio")

    def mean(phase: Phase) -> float:
        return statistics.fmean(s.latency_s for s in phase.samples)

    m["trace.overhead_frac"] = (mean(traced) / mean(untraced) - 1, "ratio")
    return m


def run_untraced(wl_name: str, seed: int, seconds: float):
    """``SETUP_REPS`` set-ups, with the timed phase after them.

    A closed loop's phase is split into equal parts, one after each
    set-up: spreading its requests over the whole run averages out the
    multi-second swings in machine speed that one contiguous window
    would catch or miss.  An open loop's queue carries state from one
    request to the next, so its trace runs whole after the last set-up.
    """
    cls = WORKLOADS[wl_name]
    parts = SETUP_REPS if cls.closed_loop else 1
    setups, records, phases = [], [], []
    for rep in range(SETUP_REPS):
        wl = cls(seed, seconds / parts)
        setups.append(set_up(wl))
        records.append(wl.determinism())
        timed = rep >= SETUP_REPS - parts
        phase = wl.run(seconds / parts) if timed else None
        wl.close()
        if phase is not None:
            wl.check(phase)
            phases.append(phase)
    return wl, Phase.merge(phases), setups, records


def run_traced(wl_name: str, seed: int, seconds: float):
    """Untraced phase, then set-up + phase again under the wrappers."""
    wl = WORKLOADS[wl_name](seed, seconds)
    set_up(wl)
    records = [wl.determinism()]
    untraced = wl.run(seconds)
    wl.close()
    wl.check(untraced)

    led = Ledger()
    install_probes(led)
    try:
        wl = WORKLOADS[wl_name](seed, seconds)
        set_up(wl)
        records.append(wl.determinism())
        setup = {
            "encode_s": led.total("encode", "incl_s"),
            "plan_s": led.total("partition.plan", "incl_s"),
            "candidates": led.total("partition.candidate", "calls"),
            "plan_drain_s": led.total("netsim.plan", "incl_s"),
        }
        led.reset()
        traced = wl.run(seconds)
    finally:
        led.restore()  # raises unless every original is back
    wl.close()
    wl.check(traced)
    return wl, untraced, traced, led, setup, records


def declared(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def emit(
    wl: Workload, metrics: Dict[str, Metric], section: str, extras: List[str],
    records: List[Dict[str, object]], attempted: int, failed: int, correct: bool,
) -> None:
    """Human report, then the JSON line with the metrics ``section`` lists."""
    assert wl.scheme is not None
    print(f"# paperbench {wl.name} (N={wl.scheme.params.n}, {wl.rows}x{wl.cols})")
    for key, (value, unit) in metrics.items():
        anchor = f"   [{ANCHORS[key]}]" if key in ANCHORS else ""
        print(f"{key} = {value:.6g} {unit}{anchor}")
    for line in extras:
        print(line)
    print(f"determinism (after one warm-up request, {len(records)} same-seed "
          f"set-ups, identical={all(r == records[0] for r in records)}): "
          f"{json.dumps(records[0], sort_keys=True)}")
    print(f"attempted = {attempted}, failed = {failed}")
    out = {}
    for key, unit in declared(section):
        value, measured_unit = metrics[key]
        if measured_unit != unit:
            raise ValueError(f"{key}: unit {measured_unit}, declared {unit}")
        out[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": out,
    }))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.trace == 0:
        wl, phase, setups, records = run_untraced(
            args.workload, args.seed, args.seconds
        )
        metrics = end_to_end(phase, setups)
        extras = report_extras(wl, phase)
        extras.append("setup_s samples = " + ", ".join(f"{s:.3f}" for s in setups))
        phases = [phase]
    else:
        wl, untraced, traced, led, setup, records = run_traced(
            args.workload, args.seed, args.seconds / 2
        )
        metrics = layer_metrics(wl, led, setup, untraced, traced)
        extras = report_extras(wl, traced)
        extras.append(
            f"traced phase: {len(traced.samples)} requests; untraced phase: "
            f"{len(untraced.samples)} requests"
        )
        if isinstance(wl, Serve):
            try:
                p90, n = percentile([s.queue_ms for s in traced.samples], 90)
                extras.append(f"serve.queue_ms_p90 = {p90:.2f} ms (n={n})")
            except ValueError as exc:
                extras.append(f"serve.queue_ms_p90 = n/a ({exc})")
        phases = [untraced, traced]
    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    deterministic = all(r == records[0] for r in records)
    correct = failed == 0 and deterministic
    section = "end_to_end" if args.trace == 0 else "per_layer"
    emit(wl, metrics, section, extras, records, attempted, failed, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
