"""Shared-memory multiprocess execution backend for batched campaigns.

:class:`MPCampaign` runs the exact same batched engine as
:class:`~repro.fuzzer.campaign.Campaign` — same RNG stream, same
scheduling, same replay semantics — but materializes the mutants and
computes the vectorized *front half* of every window (havoc apply,
execute, key gather, fused aggregate/classify/compare) across a pool of
forked worker processes.

Design (mirrors the runner/measurer split of Klees et al.):

* **Shared state in shared memory.** The virgin map, the BigMap index
  table and the ``used_key`` counter live in
  :mod:`multiprocessing.shared_memory` segments created *before* the
  workers fork. The parent's own arrays are replaced by views into
  those segments, so every in-place write the parent makes — virgin
  merges during replays, index slot assignments, checkpoint restores
  (which deliberately restore with ``arr[:] = saved``) — is immediately
  visible to every worker with zero copies and no synchronization
  protocol: workers only ever *read* the shared segments, and only
  between window fronts, when the parent is blocked waiting for them.
* **Deterministic sharding.** A window of ``n`` rows is split into
  ``workers`` contiguous shards with bounds ``n * w // workers`` —
  a pure function of ``(n, workers)``, independent of timing.
* **Draws travel as generator states.** The parent draws every seed's
  havoc stack from the campaign RNG as the in-process engine does, but
  first records the generator state. For each draw overlapping its
  shard a worker receives ``(state, seed bytes, energy, partner
  bytes, row range)`` plus the window width, re-draws through the same
  :meth:`~repro.fuzzer.mutation.Mutator.havoc_draw` on a private
  generator set to that state — the same stream, hence the same
  matrices — and applies only its rows
  (:meth:`~repro.fuzzer.mutation.HavocDraw.take`). Workers never touch
  the campaign RNG, and the megabyte-sized draw matrices never cross a
  pipe.
* **Fixed reduction order.** The parent collects shard replies in
  worker-index order (a blocking ``recv`` per pipe, in order), then
  concatenates. Every mutant and every per-trace quantity the front
  produces (traversals, unique-location counts, interest flags, crash
  marks) is row/segment-local, so the concatenation is bit-identical
  to the in-process front no matter how many workers computed it — the
  equivalence contract of DESIGN.md §8.
* **Flagged traces come back.** Besides its mutant rows and four
  per-trace arrays, a shard ships the trace and key segments of its
  flagged and crashing rows (about 2% of rows), so the parent re-tests
  stale flags and replays from the shipped traces exactly as the
  in-process engine does.
* **Worker loss.** A worker whose pipe fails (``EOFError`` /
  ``OSError``) or that exited costs only its shard: the parent still
  holds the draws, applies and computes that shard itself
  (bit-identical by the contract), emits a ``worker_lost`` telemetry
  event, stops the other workers and runs the rest of the campaign
  in-process. A worker that stalls without dying is not detected.

Everything after the front — charging, hang prediction, replays,
admissions, checkpoints, telemetry — runs unchanged in the parent, so
campaign results are bit-identical for any worker count, including the
serial engine.

The worker entry point :func:`_mp_worker_main` is registered with the
statlint CONC001 fork-boundary rule (``[tool.statlint]`` in
pyproject.toml): module-level mutable state written on both sides of
this boundary is a lint error, which is why this module keeps all of
its state on the campaign object and in the explicit shm segments.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..core.bitmap_base import BatchUpdate
from ..core.errors import CampaignConfigError
from ..target.executor import BatchExecResult
from .campaign import BatchFront, Campaign, CampaignConfig
from .mutation import MutantBatch


@dataclass
class _ShardReply:
    """One shard's front: its mutants, the per-trace arrays, and the
    trace/key segments of its ``keep`` rows (local indices)."""

    data: np.ndarray
    lengths: np.ndarray
    traversals: np.ndarray
    n_unique: np.ndarray
    flags: np.ndarray
    crashes: np.ndarray
    keep: np.ndarray
    edge_len: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    crash_info: list
    key_len: np.ndarray
    keys: np.ndarray
    summed: np.ndarray
    classified: np.ndarray


def _segments(offsets: np.ndarray, rows: np.ndarray, *arrays):
    """Per-row segment lengths and the rows' concatenated segments."""
    lo, hi = offsets[rows], offsets[rows + 1]
    return (hi - lo,) + tuple(
        np.concatenate([a[int(s):int(e)] for s, e in zip(lo, hi)])
        if rows.size else a[:0] for a in arrays)


def _shard_reply(campaign: Campaign, batch: MutantBatch) -> _ShardReply:
    """Front of one shard's mutants, slimmed to what the parent needs."""
    front = campaign._front_of(batch)
    bres, update = front.bres, front.update
    keep = np.flatnonzero(front.flags | front.crashes)
    edge_len, edges, counts = _segments(bres.offsets, keep, bres.edges,
                                        bres.counts)
    key_len, keys, summed, classified = _segments(
        update.offsets, keep, update.keys, update.summed,
        update.classified)
    return _ShardReply(
        data=batch.data, lengths=batch.lengths,
        traversals=front.traversals, n_unique=front.n_unique,
        flags=front.flags, crashes=front.crashes, keep=keep,
        edge_len=edge_len, edges=edges, counts=counts,
        crash_info=[bres.crashes[i] for i in keep.tolist()],
        key_len=key_len, keys=keys, summed=summed,
        classified=classified)


def _offsets(n: int, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Segment offsets for ``n`` rows where only ``rows`` are non-empty."""
    per_row = np.zeros(n, dtype=np.int64)
    per_row[rows] = sizes
    return np.concatenate(([0], np.cumsum(per_row)))


def _merge(replies: List[_ShardReply], cuts: List[int]) -> BatchFront:
    """Concatenate shard replies, in order, into one window front."""
    n = cuts[-1]
    traversals = np.concatenate([r.traversals for r in replies])
    n_unique = np.concatenate([r.n_unique for r in replies])
    keep = np.concatenate([r.keep + cut for r, cut in zip(replies, cuts)])
    kept = np.zeros(n, dtype=bool)
    kept[keep] = True
    crash_info: List[Optional[object]] = [None] * n
    for row, info in zip(keep.tolist(),
                         [c for r in replies for c in r.crash_info]):
        crash_info[row] = info

    def cat(name):
        return np.concatenate([getattr(r, name) for r in replies])

    bres = BatchExecResult(
        edges=cat("edges"), counts=cat("counts"),
        offsets=_offsets(n, keep, cat("edge_len")),
        traversals=traversals, crashes=crash_info)
    update = BatchUpdate(
        keys=cat("keys"), summed=cat("summed"),
        classified=cat("classified"),
        offsets=_offsets(n, keep, cat("key_len")), n_unique=n_unique)
    return BatchFront(
        traversals=traversals, n_unique=n_unique, flags=cat("flags"),
        crashes=cat("crashes"),
        batch=MutantBatch(data=cat("data"), lengths=cat("lengths")),
        bres=bres, update=update, kept=kept)


def _redraw_shard(mutator, width: int, jobs: list) -> MutantBatch:
    """Re-draw each job's havoc draw from its recorded generator state
    and apply the job's row range at the window width. The draw
    matrices die on return, before the shard's front is computed."""
    draws = []
    for state, data, energy, partner, a, b in jobs:
        mutator.rng.bit_generator.state = state
        draws.append(mutator.havoc_draw(
            data, energy, splice_with=partner).take(a, b))
    return mutator.havoc_apply(draws, width=width)


def _mp_worker_main(campaign: "MPCampaign", conn) -> None:
    """Worker loop: apply and compute window shards on request.

    Runs in a forked child. Reads the inherited (read-only for the
    worker) executor/instrumentation tables and the shared-memory
    virgin/index/used_key state; writes nothing but its reply pipe and
    its own generator. One request re-draws the shard's havoc draws
    from their recorded generator states, applies the shard's rows at
    the window width and ships back one :class:`_ShardReply`.
    """
    mutator = copy.copy(campaign.mutator)
    mutator.rng = np.random.Generator(np.random.PCG64())
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, width, jobs = msg
            # Refresh the one scalar mirrored through shared memory
            # (arrays need no refresh: they *are* the shared segments).
            if hasattr(campaign.coverage, "used_key"):
                campaign.coverage.used_key = int(
                    campaign._used_key_shm[0])
            conn.send(_shard_reply(campaign,
                                   _redraw_shard(mutator, width, jobs)))
    finally:
        conn.close()


class MPCampaign(Campaign):
    """Batched campaign whose window front runs on a process pool.

    Args:
        config: campaign configuration; must have ``batch_execution``
            enabled (the serial engine has no front to parallelize).
        built: optional pre-built benchmark, as for :class:`Campaign`.
        telemetry: optional recorder, as for :class:`Campaign`
            (telemetry stays entirely in the parent).
        workers: number of worker processes. ``1`` is valid and useful:
            it exercises the full shm/fork/pipe path while trivially
            matching the in-process engine.

    Close explicitly (or use as a context manager): the shared-memory
    segments must be unlinked and the workers joined.
    """

    def __init__(self, config: CampaignConfig,
                 built=None, telemetry=None, *, workers: int = 2) -> None:
        if not config.batch_execution:
            raise CampaignConfigError(
                "MPCampaign requires batch_execution=True")
        if workers < 1:
            raise CampaignConfigError(
                f"workers must be >= 1, got {workers}")
        super().__init__(config, built, telemetry)
        self.workers = workers
        self._ctx = get_context("fork")
        self._shm_segments: List[shared_memory.SharedMemory] = []
        self._procs: List = []
        self._conns: List = []
        #: Per drawn seed of the open window: the generator state before
        #: its draw plus the draw's inputs (what a worker re-draws from).
        self._jobs: List[tuple] = []
        #: Set once a worker is lost: the rest runs in-process.
        self._in_process = False
        self._closed = False
        self._move_shared_state()

    # -- shared-memory plumbing ----------------------------------------

    def _shm_view(self, arr: np.ndarray) -> np.ndarray:
        """Copy ``arr`` into a fresh shm segment; return the view."""
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(int(arr.nbytes), 1))
        self._shm_segments.append(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[:] = arr
        return view

    def _move_shared_state(self) -> None:
        """Re-home the cross-process state into shared memory.

        Must happen before any fork. After this, the parent's writes
        go through the views, so no explicit publish step exists —
        except for ``used_key``, a plain int mirrored into a one-cell
        array right before each dispatch.
        """
        self.virgin.virgin = self._shm_view(self.virgin.virgin)
        if hasattr(self.coverage, "index"):
            self.coverage.index = self._shm_view(self.coverage.index)
        self._used_key_shm = self._shm_view(np.zeros(1, dtype=np.int64))

    def _start_workers(self) -> None:
        """Fork the pool (lazily, so workers inherit started state)."""
        for _ in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(target=_mp_worker_main,
                                     args=(self, child_conn),
                                     daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _stop_workers(self) -> None:
        """Ask every worker to stop, join it, close its pipe."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []

    # -- engine override -----------------------------------------------

    def _draw(self, data: bytes, energy: int, partner: Optional[bytes]):
        self._jobs.append((self.rng.bit_generator.state, data, energy,
                           partner))
        return super()._draw(data, energy, partner)

    def _batch_front(self, window) -> BatchFront:
        """Sharded window front: deterministic split, ordered reduce.

        Ships each worker the draws overlapping its contiguous row
        shard (as generator states) and concatenates the replies in
        worker order. A shard whose worker is gone is computed here.
        """
        jobs, self._jobs = self._jobs, []
        if self._in_process:
            return super()._batch_front(window)
        if not self._procs:
            self._start_workers()
        self._used_key_shm[0] = getattr(self.coverage, "used_key", 0)
        draws, _, bounds = window
        width = max(d.width for d in draws)
        n = int(bounds[-1])
        w = self.workers
        cuts = [n * k // w for k in range(w + 1)]
        shards = [_overlaps(bounds, cuts[k], cuts[k + 1])
                  for k in range(w)]
        lost: Dict[int, str] = {}
        for k, conn in enumerate(self._conns):
            code = self._procs[k].exitcode
            if code is not None:
                lost[k] = f"exited with code {code}"
                continue
            try:
                conn.send(("front", width,
                           [jobs[j] + (a, b) for j, a, b in shards[k]]))
            except OSError as exc:
                lost[k] = f"{type(exc).__name__}: {exc}"
        replies: List[Optional[_ShardReply]] = [None] * w
        for k, conn in enumerate(self._conns):
            if k in lost:
                continue
            try:
                replies[k] = conn.recv()
            except (EOFError, OSError) as exc:
                lost[k] = f"{type(exc).__name__}: {exc}"
        for k in sorted(lost):
            replies[k] = _shard_reply(self, self.mutator.havoc_apply(
                [draws[j].take(a, b) for j, a, b in shards[k]],
                width=width))
            if self.telemetry is not None:
                self.telemetry.emit("worker_lost", self.clock.seconds,
                                    worker=k, reason=lost[k],
                                    rows=cuts[k + 1] - cuts[k])
        draws.clear()  # spent, as in the in-process front
        if lost:
            self._stop_workers()
            self._in_process = True
        return _merge(replies, cuts)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop workers, join them, release the shm segments."""
        if self._closed:
            return
        self._closed = True
        self._stop_workers()
        # Detach the parent-side views before releasing their buffers
        # (the arrays would otherwise keep the mappings pinned).
        self.virgin.virgin = self.virgin.virgin.copy()
        if hasattr(self.coverage, "index"):
            self.coverage.index = self.coverage.index.copy()
        self._used_key_shm = self._used_key_shm.copy()
        for shm in self._shm_segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shm_segments = []

    def __enter__(self) -> "MPCampaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        # A finalizer must never raise (the interpreter would print and
        # discard it mid-GC); close() is best-effort here and explicit
        # close()/context-manager exits surface real errors.
        except Exception:  # statlint: disable=ERR001 (finalizer)
            pass


def _overlaps(bounds: np.ndarray, lo: int, hi: int) -> List[tuple]:
    """``(draw, a, b)`` for every draw whose rows meet ``[lo, hi)``:
    the draw's local rows ``[a, b)`` that fall inside the shard."""
    out = []
    for j in range(bounds.size - 1):
        start, end = int(bounds[j]), int(bounds[j + 1])
        a, b = max(lo, start), min(hi, end)
        if a < b:
            out.append((j, a - start, b - start))
    return out
