"""Vectorized program execution: one pass, level-by-level.

:class:`Executor` evaluates every edge guard against the input in one
vectorized sweep, then propagates reachability down the tree one depth
level at a time (a parent's verdict is final before any child reads
it). Loop hit counts, crash detection and trace truncation all fall out
of the same pass — no per-edge Python loop ever runs at execute time.

Execution order is breadth-first by ``(depth, edge index)``; a crash
truncates the trace after the crashing edge in that order, the way a
real process stops producing coverage at the faulting instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cfg import NO_CRASH, NO_LOOP, Guard, Program
from .crashes import CrashInfo, synth_stack

#: Base of the synthetic fault-address space (see CrashInfo).
_FAULT_BASE = 0x400000


@dataclass
class ExecResult:
    """Outcome of one execution.

    Attributes:
        edges: ``int64`` indices of traversed edges, ascending.
        counts: per-edge hit counts aligned with ``edges`` (1 for plain
            edges, ``1 + inp[loop_off] % loop_cap`` for loop edges).
        traversals: total edge traversals (``counts.sum()``) — the
            execution-cost driver in the memory model.
        crash: the triggered :class:`CrashInfo`, or ``None``.
        interesting: scratch flag for the coverage pipeline (the
            executor itself always leaves it ``False``).
    """

    edges: np.ndarray
    counts: np.ndarray
    traversals: int
    crash: Optional[CrashInfo] = None
    interesting: bool = field(default=False, compare=False)

    @property
    def n_edges(self) -> int:
        """Number of distinct edges traversed."""
        return int(self.edges.size)


@dataclass
class BatchExecResult:
    """Outcome of one batched execution of ``n`` inputs.

    Per-trace edge lists are concatenated into flat arrays; trace ``i``
    owns the segment ``[offsets[i], offsets[i+1])``. Within a segment
    edges are ascending, exactly as :class:`ExecResult` orders them.

    Attributes:
        edges: flat ``int64`` edge indices for all traces.
        counts: flat hit counts aligned with ``edges``.
        offsets: ``int64`` array of ``n + 1`` segment boundaries.
        traversals: per-trace total traversals (``int64``, length n).
        crashes: per-trace :class:`CrashInfo` or ``None``.
    """

    edges: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    traversals: np.ndarray
    crashes: List[Optional[CrashInfo]]

    @property
    def n(self) -> int:
        """Number of traces in the batch."""
        return int(self.offsets.size - 1)

    def segment(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(edges, counts) views for trace ``i``."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.edges[lo:hi], self.counts[lo:hi]

    def result_for(self, i: int) -> ExecResult:
        """Materialize trace ``i`` as a scalar :class:`ExecResult`."""
        edges, counts = self.segment(i)
        return ExecResult(edges=edges, counts=counts,
                          traversals=int(self.traversals[i]),
                          crash=self.crashes[i])


class Executor:
    """Executes inputs against one :class:`Program`.

    Construction precomputes guard gather tables and the level
    structure; :meth:`execute` is then a handful of vectorized ops.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        n = program.n_edges
        kind = program.kind

        self._lt = np.flatnonzero(kind == np.uint8(Guard.BYTE_LT))
        self._lt_off = program.off[self._lt]
        self._lt_val = program.val[self._lt]
        self._eq = np.flatnonzero(kind == np.uint8(Guard.BYTE_EQ))
        self._eq_off = program.off[self._eq]
        self._eq_val = program.val[self._eq]
        self._never = np.flatnonzero(kind == np.uint8(Guard.NEVER))
        self._multi = np.flatnonzero(kind == np.uint8(Guard.EQ_MULTI))
        self._multi_off = program.off[self._multi]
        self._multi_width = program.width[self._multi]
        self._multi_magic = program.magic[self._multi]

        self._loops = np.flatnonzero(program.loop_off != NO_LOOP)
        self._loop_off = program.loop_off[self._loops]
        self._loop_cap = program.loop_cap[self._loops]

        order = np.argsort(program.depth, kind="stable")
        depths = program.depth[order]
        max_depth = int(depths[-1]) if n else 0
        bounds = np.searchsorted(depths, np.arange(max_depth + 2))
        self._levels: List[Tuple[np.ndarray, np.ndarray]] = []
        for level in range(1, max_depth + 1):
            idx = order[bounds[level]:bounds[level + 1]]
            self._levels.append((idx, program.parent[idx]))

        self._crash_edges = np.flatnonzero(program.crash_site != NO_CRASH)
        # Lexicographic (depth, index) rank for picking the first crash.
        self._crash_rank = (program.depth[self._crash_edges]
                            .astype(np.int64) * (n + 1) +
                            self._crash_edges)
        self._depth = program.depth
        self._stack_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def _guards_ok(self, buf: np.ndarray) -> np.ndarray:
        ok = np.ones(self.program.n_edges, dtype=bool)
        ok[self._never] = False
        if self._lt.size:
            ok[self._lt] = buf[self._lt_off] < self._lt_val
        if self._eq.size:
            ok[self._eq] = buf[self._eq_off] == self._eq_val
        if self._multi.size:
            acc = np.ones(self._multi.size, dtype=bool)
            for j in range(int(self._multi_width.max())):
                sel = self._multi_width > j
                acc[sel] &= (buf[self._multi_off[sel] + j] ==
                             self._multi_magic[sel, j])
            ok[self._multi] = acc
        return ok

    def _crash_info(self, edge: int) -> CrashInfo:
        site = int(self.program.crash_site[edge])
        stack = self._stack_cache.get(edge)
        if stack is None:
            stack = synth_stack(self.program, edge)
            self._stack_cache[edge] = stack
        return CrashInfo(site_id=site, edge_index=edge, stack=stack,
                         fault_address=_FAULT_BASE + (site << 6))

    def execute(self, data: bytes) -> ExecResult:
        """Run one input; returns its trace (and crash, if any)."""
        program = self.program
        buf = np.zeros(program.input_len, dtype=np.uint8)
        raw = np.frombuffer(data, dtype=np.uint8)[:program.input_len]
        buf[:raw.size] = raw

        reach = self._guards_ok(buf)
        for idx, parents in self._levels:
            reach[idx] &= reach[parents]

        crash = None
        if self._crash_edges.size:
            hit = reach[self._crash_edges]
            if hit.any():
                pos = int(np.argmin(np.where(
                    hit, self._crash_rank, np.iinfo(np.int64).max)))
                edge = int(self._crash_edges[pos])
                crash = self._crash_info(edge)
                d = self._depth[edge]
                reach &= (self._depth < d) | (
                    (self._depth == d) &
                    (np.arange(program.n_edges) <= edge))

        edges = np.flatnonzero(reach).astype(np.int64)
        counts = np.ones(edges.size, dtype=np.int64)
        if self._loops.size:
            live = reach[self._loops]
            if live.any():
                pos = np.searchsorted(edges, self._loops[live])
                counts[pos] = 1 + (buf[self._loop_off[live]]
                                   .astype(np.int64)
                                   % self._loop_cap[live])
        return ExecResult(edges=edges, counts=counts,
                          traversals=int(counts.sum()), crash=crash)

    # ------------------------------------------------------------------
    # batched execution

    def _guards_ok_batch(self, bufs: np.ndarray) -> np.ndarray:
        n_rows = bufs.shape[0]
        ok = np.ones((n_rows, self.program.n_edges), dtype=bool)
        ok[:, self._never] = False
        if self._lt.size:
            ok[:, self._lt] = bufs[:, self._lt_off] < self._lt_val
        if self._eq.size:
            ok[:, self._eq] = bufs[:, self._eq_off] == self._eq_val
        if self._multi.size:
            acc = np.ones((n_rows, self._multi.size), dtype=bool)
            for j in range(int(self._multi_width.max())):
                sel = self._multi_width > j
                acc[:, sel] &= (bufs[:, self._multi_off[sel] + j] ==
                                self._multi_magic[sel, j])
            ok[:, self._multi] = acc
        return ok

    def execute_batch(self, data: np.ndarray,
                      lengths: np.ndarray = None) -> BatchExecResult:
        """Run a ``(n, width)`` uint8 matrix of inputs in one pass.

        Rows must be zero-padded past their logical lengths — exactly
        the layout :meth:`Mutator.havoc_apply` produces — because the
        scalar path zero-fills its buffer; any padding width is
        accepted (rows are truncated or zero-extended to the program's
        ``input_len``). Each trace is bit-identical to
        ``execute(row_bytes)``.

        Args:
            data: 2-D uint8 matrix, one input per row.
            lengths: unused (row semantics come from the zero padding);
                accepted so callers can pass a mutant batch's metadata
                through unchanged.

        Returns:
            :class:`BatchExecResult` with flat per-trace segments.
        """
        program = self.program
        n_rows, width = data.shape
        n = program.n_edges
        bufs = np.zeros((n_rows, program.input_len), dtype=np.uint8)
        w = min(width, program.input_len)
        bufs[:, :w] = data[:, :w]

        reach = self._guards_ok_batch(bufs)
        for idx, parents in self._levels:
            reach[:, idx] &= reach[:, parents]

        crashes: List[Optional[CrashInfo]] = [None] * n_rows
        if self._crash_edges.size:
            hit = reach[:, self._crash_edges]
            crashed_rows = np.flatnonzero(hit.any(axis=1))
            if crashed_rows.size:
                ranks = np.where(hit[crashed_rows], self._crash_rank,
                                 np.iinfo(np.int64).max)
                first = np.argmin(ranks, axis=1)
                crash_edges = self._crash_edges[first]
                for row, edge in zip(crashed_rows, crash_edges):
                    crashes[row] = self._crash_info(int(edge))
                d = self._depth[crash_edges][:, None]
                arange = np.arange(n)
                reach[crashed_rows] &= (self._depth < d) | (
                    (self._depth == d) & (arange <= crash_edges[:, None]))

        rows, cols = np.nonzero(reach)
        edges = cols.astype(np.int64)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
        counts = np.ones(edges.size, dtype=np.int64)
        if self._loops.size:
            lrows, lidx = np.nonzero(reach[:, self._loops])
            if lrows.size:
                # Flat position of (row, col): the flat array is sorted
                # by the global key row * n_edges + col.
                key = rows.astype(np.int64) * n + cols
                pos = np.searchsorted(
                    key, lrows.astype(np.int64) * n + self._loops[lidx])
                counts[pos] = 1 + (bufs[lrows, self._loop_off[lidx]]
                                   .astype(np.int64)
                                   % self._loop_cap[lidx])
        csum = np.zeros(edges.size + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        traversals = csum[offsets[1:]] - csum[offsets[:-1]]
        return BatchExecResult(edges=edges, counts=counts,
                               offsets=offsets, traversals=traversals,
                               crashes=crashes)
