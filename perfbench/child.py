"""Run one benchmark campaign in this (fresh) process; print one JSON line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload steady-64k --seed 3 \
        [--engine serial] [--setup-only] [--trace-out spans.npz] \
        [--tmp DIR]

The parent (``perfbench/run.py``) starts one of these per campaign so
that peak RSS (``ru_maxrss`` is a per-process high-water mark) and
allocator state belong to that campaign alone.

Timed regions:

* ``setup_s`` — ``BenchmarkConfig.build`` + campaign construction
  (laf-intel, instrumentation, maps, shared memory) + ``start()``
  (dry run and calibration); ``--setup-only`` stops after it;
* ``fuzz_s`` — from ``start()`` returning to ``finish()`` returning.

``--engine serial`` runs the same config through the serial scalar
engine in-process with telemetry off: the reference implementation the
batched engines must match bit-for-bit (DESIGN.md §8).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time

from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.mp import MPCampaign
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder

from spantrace import FUZZ, SpanRecorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(result) -> str:
    """Digest of what a run produced, normalized to plain Python types."""
    summary = (
        int(result.execs),
        [bytes(c) for c in result.corpus],
        [(float(t), int(e)) for t, e in result.coverage_curve],
        sorted((k, float(v)) for k, v in result.op_cycles.items()),
        int(result.unique_crashes),
        int(result.hangs),
    )
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def _vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a live process from /proc (0 where unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def set_up(spec: dict, seed: int, *, serial: bool = False):
    """Build, construct and start the campaign; time all three.

    Returns ``(built, campaign, telemetry, setup_s)``. A started
    :class:`MPCampaign` owns shared memory: the caller closes it.
    """
    config = dict(spec["config"], rng_seed=seed)
    backend, telemetry = spec["backend"], spec["telemetry"]
    if serial:
        config["batch_execution"] = False
        backend, telemetry = "inproc", False
    config = CampaignConfig(**config)

    t0 = time.perf_counter()
    built = get_benchmark(config.benchmark).build(
        config.scale, seed_scale=config.seed_scale)
    telem = TelemetryRecorder() if telemetry else None
    if backend == "mp":
        campaign = MPCampaign(config, built=built, telemetry=telem,
                              workers=spec["workers"])
    else:
        campaign = Campaign(config, built=built, telemetry=telem)
    try:
        campaign.start()
    except BaseException:
        if isinstance(campaign, MPCampaign):
            campaign.close()
        raise
    return built, campaign, telem, time.perf_counter() - t0


def run_campaign(spec: dict, seed: int, *, serial: bool = False,
                 recorder: SpanRecorder = None, tmp: str = None) -> dict:
    """Set up and run one campaign to its budget; its measurements."""
    built, campaign, telem, setup_s = set_up(spec, seed, serial=serial)
    budget = campaign.config.virtual_seconds
    try:
        t1 = time.perf_counter()
        if recorder is not None:
            with recorder.span(FUZZ):
                campaign.step_until(budget)
                result = campaign.finish()
        else:
            campaign.step_until(budget)
            result = campaign.finish()
        t2 = time.perf_counter()
        workers_rss = sum(_vm_hwm_mb(p.pid)
                          for p in multiprocessing.active_children())
    finally:
        if isinstance(campaign, MPCampaign):
            campaign.close()
    if telem is not None:
        out = tempfile.mkdtemp(prefix="telemetry-", dir=tmp)
        try:
            telem.flush(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    total = sum(result.op_cycles.values())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "seed": seed,
        "setup_s": setup_s,
        "fuzz_s": t2 - t1,
        "execs": int(result.execs),
        "execs_per_s": result.execs / (t2 - t1),
        "peak_rss_mb": rss + workers_rss,
        "modeled_execs_per_s": float(result.throughput),
        "edges": int(result.discovered_locations),
        "unique_crashes": int(result.unique_crashes),
        "admitted": len(result.corpus) - len(built.seeds),
        "stopped_by": result.stopped_by,
        "digest": digest(result),
        "share": {k: float(v) / total
                  for k, v in sorted(result.op_cycles.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--engine", choices=("as-defined", "serial"),
                        default="as-defined")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, then exit")
    parser.add_argument("--virtual-seconds", type=float, default=None,
                        help="override the workload's virtual budget "
                             "(smoke tests only)")
    parser.add_argument("--trace-out", default=None,
                        help="record layer spans and save them here")
    parser.add_argument("--tmp", default=None,
                        help="directory for the telemetry flush")
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][args.workload]
    if args.virtual_seconds is not None:
        spec = dict(spec, config=dict(
            spec["config"], virtual_seconds=args.virtual_seconds))
    serial = args.engine == "serial"
    if args.setup_only:
        _, campaign, _, setup_s = set_up(spec, args.seed, serial=serial)
        if isinstance(campaign, MPCampaign):
            campaign.close()
        print(json.dumps({"seed": args.seed, "setup_s": setup_s}))
        return 0
    recorder = None
    if args.trace_out:
        recorder = SpanRecorder()
        recorder.install()
    out = run_campaign(spec, args.seed, serial=serial, recorder=recorder,
                       tmp=args.tmp)
    if recorder is not None:
        out["layers"] = layer_metrics(recorder)
        recorder.save(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
