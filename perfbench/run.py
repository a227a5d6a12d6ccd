"""The repository benchmark: seeded fuzzing campaigns, timed on the host.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-64k --seed 3 \
        --seconds 45 --trace 0

Workloads, their configs, why each was chosen and which layers it loads
or bypasses are in ``perfbench/workloads.json``. Every campaign runs to
its virtual budget in a fresh process (``perfbench/child.py``).

``--trace 0`` repeats the workload's campaign, all with the workload
seed as ``rng_seed``, until ``--seconds`` of host time are used (at
least once), and reports the end-to-end metrics: medians over those
campaigns for host time and memory, exact values for the modeled ones.
``setup_s`` is the median of at least ``SETUP_SAMPLES`` fresh-process
set-ups; set-up-only processes make up for campaigns that did not run.
``--trace 1`` runs the campaign once untraced and once with layer spans
(``perfbench/spantrace.py``) and reports the per-layer metrics plus
``trace_overhead``.

Correctness gate, per campaign: it must stop on its virtual budget and
its result digest (execs, corpus, coverage curve, op cycles, unique
crashes, hangs) must equal the reference digest for the same seed. The
reference is the serial engine for the in-process workloads and the
``steady-64k`` campaign for ``trial-mp2`` (telemetry and the process
backend change nothing). A campaign that raises or mismatches counts as
failed. The last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
#: Host seconds one invocation may take before its campaigns are killed.
RUN_LIMIT_S = 170.0
#: Fresh-process set-ups whose median is ``setup_s``; when fewer
#: campaigns ran, set-up-only processes make up the difference.
SETUP_SAMPLES = 9


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, deadline: float, *,
              engine: str = "as-defined", trace_out: str = None,
              setup_only: bool = False, virtual_seconds: float = None):
    """One campaign in a fresh process; its JSON record, or None."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--engine", engine, "--tmp", OUT_DIR]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    if virtual_seconds is not None:
        cmd += ["--virtual-seconds", repr(virtual_seconds)]
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Own session, so a timeout can take down the backend's workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"campaign timed out: {workload} seed {seed}",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"campaign failed ({proc.returncode}): {workload} "
              f"seed {seed}", file=sys.stderr)
        return None
    record = json.loads(stdout.strip().splitlines()[-1])
    if not setup_only:
        print(f"{workload} seed {seed} {engine}: {record['execs']} execs "
              f"in {record['fuzz_s']:.3f} s "
              f"({record['execs_per_s']:.1f}/s)", file=sys.stderr)
    return record


def reference_digest(workloads: dict, workload: str, seed: int,
                     deadline: float, virtual_seconds: float = None):
    """Digest the workload's reference run produces for ``seed``."""
    ref = workloads[workload]["reference"]
    if ref == "serial":
        record = run_child(workload, seed, deadline, engine="serial",
                           virtual_seconds=virtual_seconds)
    else:
        record = run_child(ref, seed, deadline,
                           virtual_seconds=virtual_seconds)
    return None if record is None else record["digest"]


def gate(record, ref) -> bool:
    """True when a campaign ran, stopped on budget and matches ``ref``."""
    return (record is not None and ref is not None
            and record["stopped_by"] == "budget"
            and record["digest"] == ref)


def end_to_end(records, setups) -> dict:
    """Medians of host metrics; the (identical) modeled values."""
    first = records[0]
    return {
        "execs_per_s": statistics.median(r["execs_per_s"] for r in records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "modeled_execs_per_s": first["modeled_execs_per_s"],
        "edges": first["edges"],
        "unique_crashes": first["unique_crashes"],
    }


def per_layer(untraced, traced) -> dict:
    """The traced campaign's layer metrics, Fig. 3 shares and overhead."""
    values = dict(traced["layers"])
    for op, share in traced["share"].items():
        values["memsim.share." + op] = share
    values["trace_overhead"] = traced["layers"]["fuzz_wall_s"] \
        / untraced["fuzz_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (campaign rng_seed); "
                             "defaults to workloads.json's default_seed")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--virtual-seconds", type=float, default=None,
                        help="override the virtual budget (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (src/repro "
              "not found)", file=sys.stderr)
        return 2
    bench = _load(os.path.join(HERE, os.pardir, "BENCHMARK.json"))
    spec = _load(os.path.join(HERE, "workloads.json"))
    workloads = spec["workloads"]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    def campaign(**kwargs):
        return run_child(args.workload, seed, deadline,
                         virtual_seconds=args.virtual_seconds, **kwargs)

    ref = reference_digest(workloads, args.workload, seed, deadline,
                           args.virtual_seconds)
    if args.trace:
        untraced = campaign()
        traced = campaign(trace_out=os.path.join(
            OUT_DIR, f"spans-{args.workload}-{seed}.npz"))
        records = [untraced, traced]
        ok = [r for r in records if gate(r, ref)]
        values = per_layer(untraced, traced) if len(ok) == 2 else {}
        failed = len(records) - len(ok)
    else:
        records = []
        begin = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            records.append(campaign())
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(durations) > args.seconds:
                break
        ok = [r for r in records if gate(r, ref)]
        setups = [r["setup_s"] for r in ok]
        failed = len(records) - len(ok)
        for _ in range(SETUP_SAMPLES - len(records)):
            record = campaign(setup_only=True)
            records.append(record)
            if record is None:
                failed += 1
            else:
                setups.append(record["setup_s"])
        values = end_to_end(ok, setups) if ok else {}

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
