"""Host-time span tracing around the public entry points of each layer.

The wrappers are installed on the classes (and, for the two module-level
builders the campaign imports, on the ``repro.fuzzer.campaign`` module)
before any campaign object exists, so every call a campaign makes
through them is recorded. Nothing under ``src/`` is modified.

Spans are kept in memory as parallel lists — name, start, end, parent
index — and written out once at the end. A span's parent is the
innermost span open when it started, so children always nest inside
their parent and a span's *self time* is its duration minus the summed
durations of its direct children. Forked workers (``repro.fuzzer.mp``)
inherit the wrappers, but they record into their own copy of the lists,
which dies with them: only parent-process spans are counted.

Some spans also record two counts taken from the call's result: ``n``
(rows, calls) and ``hit`` (flagged rows, interesting verdicts), from
which the layer ratios are formed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

#: Name of the root span the benchmark opens around step_until()+finish().
FUZZ = "campaign.fuzz"


def _rows(result):
    return result.n, 0


def _flags(result):
    flags = result[1]
    return int(flags.size), int(np.count_nonzero(flags))


def _front(result):
    return result.n, int(np.count_nonzero(result.flags))


def _truth(result):
    return 1, int(bool(result))


def _interesting(result):
    return 1, int(bool(result.interesting))


#: (module, class, method, span name, counter). Methods are wrapped on
#: every class in the named class's hierarchy that defines them.
CLASS_SPANS = [
    ("repro.target.benchmarks", "BenchmarkConfig", "build",
     "target.build", None),
    ("repro.target.executor", "Executor", "execute",
     "target.execute", None),
    ("repro.target.executor", "Executor", "execute_batch",
     "target.execute_batch", _rows),
    ("repro.instrumentation.edge_ids", "Instrumentation", "keys_for",
     "instrumentation.keys_for", None),
    ("repro.instrumentation.edge_ids", "Instrumentation",
     "keys_for_batch", "instrumentation.keys_for_batch", None),
    ("repro.core.bitmap_base", "CoverageMap", "reset", "core.reset", None),
    ("repro.core.bitmap_base", "CoverageMap", "update", "core.update",
     None),
    ("repro.core.bitmap_base", "CoverageMap", "classify_and_compare",
     "core.classify_and_compare", _interesting),
    ("repro.core.bitmap_base", "CoverageMap", "classify", "core.classify",
     None),
    ("repro.core.bitmap_base", "CoverageMap", "hash", "core.hash", None),
    ("repro.core.bitmap_base", "CoverageMap", "update_compare_batch",
     "core.update_compare_batch", _flags),
    ("repro.core.bitmap_base", "CoverageMap", "segment_interesting",
     "core.segment_interesting", _truth),
    ("repro.fuzzer.mutation", "Mutator", "havoc_draw",
     "mutation.havoc_draw", None),
    ("repro.fuzzer.mutation", "Mutator", "havoc_apply",
     "mutation.havoc_apply", _rows),
    ("repro.fuzzer.scheduling", "Scheduler", "next_seed",
     "scheduling.next_seed", None),
    ("repro.fuzzer.scheduling", "Scheduler", "energy_for",
     "scheduling.energy_for", None),
    ("repro.fuzzer.pool", "SeedPool", "add", "pool.add", None),
    ("repro.fuzzer.pool", "SeedPool", "cull", "pool.cull", None),
    ("repro.fuzzer.pool", "SeedPool", "pick_splice_partner",
     "pool.pick_splice_partner", None),
    ("repro.fuzzer.triage", "CrashwalkTriager", "observe",
     "triage.crash", None),
    ("repro.memsim.costmodel", "BitmapCostModel", "exec_cycles",
     "memsim.exec_cycles", None),
    ("repro.memsim.costmodel", "BitmapCostModel", "exec_cycles_batch",
     "memsim.exec_cycles_batch", None),
    ("repro.memsim.costmodel", "BitmapCostModel", "level_share",
     "memsim.level_share", None),
    ("repro.fuzzer.campaign", "Campaign", "start", "campaign.start", None),
    ("repro.fuzzer.mp", "MPCampaign", "_batch_front", "mp.front", _front),
    ("repro.telemetry.recorder", "TelemetryRecorder", "emit",
     "telemetry.emit", None),
    ("repro.telemetry.recorder", "TelemetryRecorder", "flush",
     "telemetry.flush", None),
    ("repro.telemetry.spans", "SpanTracer", "add", "telemetry.tracer",
     None),
    ("repro.telemetry.spans", "Span", "__enter__", "telemetry.tracer",
     None),
    ("repro.telemetry.spans", "Span", "__exit__", "telemetry.tracer",
     None),
]

#: Module-level builders the campaign constructor calls by name.
MODULE_SPANS = [
    ("repro.fuzzer.campaign", "apply_lafintel", "instrumentation.build"),
    ("repro.fuzzer.campaign", "build_instrumentation",
     "instrumentation.build"),
]

#: A span opened while its parent has one of these names is folded into
#: the parent: ngram-style metrics compute keys_for_batch as a loop over
#: keys_for, and that per-row work belongs to the batch front, not to
#: the scalar replays that instrumentation.keys_for.s measures.
FOLD_UNDER = {"instrumentation.keys_for": {"instrumentation.keys_for_batch"}}

#: Spans reported by inclusive duration at top level (set-up, flush).
TOP_LEVEL = ("target.build", "instrumentation.build", "campaign.start",
             "telemetry.flush")

#: per-layer metric -> span names whose self time it sums (fuzz subtree).
SELF_TIME = {
    "mutation.havoc_apply.s": ("mutation.havoc_apply",),
    "mutation.havoc_draw.s": ("mutation.havoc_draw",),
    "target.execute_batch.s": ("target.execute_batch",),
    "instrumentation.keys_for_batch.s": ("instrumentation.keys_for_batch",),
    "core.update_compare_batch.s": ("core.update_compare_batch",),
    "pool.add.s": ("pool.add",),
    "pool.cull.s": ("pool.cull",),
    "scheduling.next_seed.s": ("scheduling.next_seed",),
    "scheduling.energy_for.s": ("scheduling.energy_for",),
    "pool.pick_splice_partner.s": ("pool.pick_splice_partner",),
    "core.scalar.s": ("core.reset", "core.update",
                      "core.classify_and_compare", "core.classify",
                      "core.hash"),
    "instrumentation.keys_for.s": ("instrumentation.keys_for",),
    "memsim.exec_cycles_batch.s": ("memsim.exec_cycles_batch",),
    "memsim.exec_cycles.s": ("memsim.exec_cycles",),
    "memsim.level_share.s": ("memsim.level_share",),
    "campaign.self_s": (FUZZ,),
    "mp.front.s": ("mp.front",),
    "telemetry.emit.s": ("telemetry.emit",),
    "telemetry.tracer.s": ("telemetry.tracer",),
}

#: per-layer metric -> span name whose call count it reports.
CALLS = {
    "pool.add.calls": "pool.add",
    "target.execute.calls": "target.execute",
    "core.segment_interesting.calls": "core.segment_interesting",
    "memsim.exec_cycles_batch.calls": "memsim.exec_cycles_batch",
    "telemetry.emit.calls": "telemetry.emit",
}

#: per-layer metric -> span name whose summed ``n`` it reports.
ROWS = {
    "mutation.rows": "mutation.havoc_apply",
    "target.execute_batch.rows": "target.execute_batch",
    "mp.front.rows": "mp.front",
}


class SpanRecorder:
    """In-memory span store plus the class-level wrappers feeding it."""

    def __init__(self) -> None:
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ns = []
        self.hits = []
        self._stack = [-1]
        self._undo = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.ns.append(1)
        self.hits.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        fold = FOLD_UNDER.get(name, ())
        names, stack = self.names, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold and stack[-1] >= 0 and names[stack[-1]] in fold:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.ns[idx], self.hits[idx] = counter(result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the caller's ``with`` block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` reverts."""
        for module, cls_name, method, name, counter in CLASS_SPANS:
            root = getattr(importlib.import_module(module), cls_name)
            for cls in _hierarchy(root):
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(original, name, counter))
                    self._undo.append((cls, method, original))
        for module, func, name in MODULE_SPANS:
            mod = importlib.import_module(module)
            original = getattr(mod, func)
            setattr(mod, func, self._wrap(original, name, None))
            self._undo.append((mod, func, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- analysis ------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays plus the name table."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int64),
            "n": np.array(self.ns, dtype=np.int64),
            "hit": np.array(self.hits, dtype=np.int64),
        }, table

    def save(self, path: str) -> None:
        spans, table = self.arrays()
        np.savez_compressed(path, names=np.array(table), **spans)


def _hierarchy(root):
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


def self_times(spans) -> np.ndarray:
    """Duration minus the summed durations of each span's children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.size)
    return dur - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's top-level ancestor (parents precede children)."""
    out = np.arange(parent.size)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = out[p]
    return out


def layer_metrics(recorder: SpanRecorder) -> dict:
    """Per-layer metrics from the recorded spans.

    Everything is taken over the subtree of the ``campaign.fuzz`` root,
    except the set-up and flush spans, which are top-level by nature.
    """
    spans, table = recorder.arrays()
    names = np.array(table, dtype=object)[spans["name"]]
    top = roots(spans["parent"])
    fuzz_roots = np.flatnonzero((spans["parent"] < 0) & (names == FUZZ))
    in_fuzz = np.isin(top, fuzz_roots)
    own = self_times(spans)
    dur = spans["end"] - spans["start"]

    self_s = defaultdict(float)
    calls = defaultdict(int)
    n = defaultdict(int)
    hit = defaultdict(int)
    for name, s, nn, hh in zip(names[in_fuzz].tolist(),
                               own[in_fuzz].tolist(),
                               spans["n"][in_fuzz].tolist(),
                               spans["hit"][in_fuzz].tolist()):
        self_s[name] += s
        calls[name] += 1
        n[name] += nn
        hit[name] += hh

    out = {}
    for metric, members in SELF_TIME.items():
        out[metric] = sum(self_s[m] for m in members)
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric, name in ROWS.items():
        out[metric] = n[name]
    front = "mp.front" if n["mp.front"] else "core.update_compare_batch"
    out["core.flag_rate"] = _ratio(hit[front], n[front])
    checks = calls["core.segment_interesting"]
    out["core.stale_downgrade_rate"] = _ratio(
        checks - hit["core.segment_interesting"], checks)
    out["core.replay_useful"] = _ratio(
        calls["pool.add"] + calls["triage.crash"],
        calls["core.classify_and_compare"])
    top_level = spans["parent"] < 0
    for name in TOP_LEVEL:
        out[name + ".s"] = float(np.sum(dur[top_level & (names == name)]))
    out["fuzz_wall_s"] = float(np.sum(dur[fuzz_roots]))
    return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
