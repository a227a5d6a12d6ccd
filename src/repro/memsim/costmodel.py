"""Analytical per-execution cost model for bitmap operations.

This module prices one fuzzing iteration (target execution + bitmap
reset/update/classify/compare/hash) in cycles on a
:class:`~repro.memsim.machine.Machine`, reproducing the paper's
throughput phenomena without its Xeon testbed.

The model rests on one residency rule, validated against the exact
cache simulator in the test suite:

    **Everything an iteration touches competes for cache.** The
    iteration's working set W is the sum of the target's own hot data
    and every map structure the iteration references. An operation's
    data is served by the smallest cache level that holds W; if W
    exceeds the LLC, it is served by DRAM.

What goes into W is where AFL and BigMap differ — and is the entire
point of the paper:

* AFL streams its full local map *and* the full virgin map every
  iteration (reset/classify/compare sweeps), so
  ``W_afl = 2 × map_size + target_ws``. An 8 MB map means a 16 MB+
  working set: nothing survives in a 12 MB LLC, every sweep and every
  scattered counter update goes to memory, and thousands of 4 kB pages
  thrash the DTLB.
* BigMap touches only the condensed prefix (``used_key`` bytes, a few
  times over) plus the cache lines of the index entries its edges hit:
  ``W_bigmap = 2 × used + unique × line + target_ws`` — independent of
  ``map_size``, which is the adaptivity claim of §IV-A.

Sequential sweeps are priced per byte at the residency level's
streaming rate (writes at DRAM pay read-for-ownership; non-temporal
stores bypass it, §IV-E). Scattered accesses pay the residency level's
load latency plus a DTLB walk fraction (huge pages eliminate it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.errors import CalibrationError
from .machine import Machine, XEON_E5645
from .tlb import scattered_walk_fraction, sweep_walk_cycles

#: Map-structure kinds.
AFL = "afl"
BIGMAP = "bigmap"

#: Extra DRAM cost factor for cached→memory write sweeps (RFO + WB).
DRAM_WRITE_FACTOR = 1.6
#: Streaming rate for non-temporal stores (cycles/byte), level-independent.
NON_TEMPORAL_RATE = 0.40
#: :meth:`BitmapCostModel.cycle_attribution` keys, in insertion order.
ATTRIBUTION_KEYS = ("core", "l1d", "l2", "llc", "dram", "tlb")


@dataclass(frozen=True)
class MapCostConfig:
    """Which data structure, at what size, with which §IV-E options."""

    kind: str
    map_size: int
    merged_classify_compare: bool = True
    non_temporal_reset: bool = False
    huge_pages: bool = True
    index_entry_bytes: int = 8

    def __post_init__(self) -> None:
        if self.kind not in (AFL, BIGMAP):
            raise CalibrationError(f"unknown map kind {self.kind!r}")
        if self.map_size <= 0:
            raise CalibrationError(f"map_size must be positive, got "
                                   f"{self.map_size}")


@dataclass(frozen=True)
class ExecShape:
    """Per-execution quantities reported by the campaign loop.

    Attributes:
        traversals: total edge traversals (instrumentation executions).
        unique_locations: distinct map locations touched.
        used_bytes: BigMap's ``used_key`` at this point (ignored for AFL).
        interesting: whether the test case triggers the hash operation.
        hash_bytes: bytes the hash covers (BigMap: up to last non-zero).
    """

    traversals: int
    unique_locations: int
    used_bytes: int = 0
    interesting: bool = False
    hash_bytes: int = 0


@dataclass(frozen=True)
class OpCycles:
    """Cycle breakdown of one fuzzing iteration (Figure 3's categories)."""

    execution: float
    reset: float
    classify: float
    compare: float
    hash: float
    others: float

    @property
    def total(self) -> float:
        return (self.execution + self.reset + self.classify +
                self.compare + self.hash + self.others)

    def as_dict(self) -> Dict[str, float]:
        return {"execution": self.execution, "reset": self.reset,
                "classify": self.classify, "compare": self.compare,
                "hash": self.hash, "others": self.others}


@dataclass(frozen=True)
class BatchOpCycles:
    """Vectorized :class:`OpCycles` for a batch of non-interesting execs.

    ``execution`` varies per trace; the sweep components depend only on
    the (shared) coverage state, so they are scalars. ``row(i)`` must be
    bit-identical to ``exec_cycles(ExecShape(...))`` for that trace —
    the batched campaign relies on this for cycle-exact determinism.
    """

    execution: np.ndarray
    reset: float
    classify: float
    compare: float
    hash: float
    others: float

    @property
    def n(self) -> int:
        return int(self.execution.size)

    def totals(self) -> np.ndarray:
        """Per-trace total cycles, accumulated in ``OpCycles.total`` order."""
        return ((((self.execution + self.reset) + self.classify) +
                 self.compare) + self.hash) + self.others

    def row(self, i: int) -> OpCycles:
        return OpCycles(execution=float(self.execution[i]),
                        reset=self.reset, classify=self.classify,
                        compare=self.compare, hash=self.hash,
                        others=self.others)


class BitmapCostModel:
    """Prices fuzzing iterations for one (machine, map config, target).

    Args:
        config: map structure and options.
        machine: hardware parameters (default: the paper's Xeon).
        exec_base_cycles: fixed per-execution target cost (setup, I/O).
        per_traversal_cycles: target cost per edge traversal.
        indirection_cycles: BigMap's extra per-traversal cost for the
            index load + predicted branch (Listing 2 lines 3–5).
        target_ws_bytes: the target program's own hot working set.
        others_cycles: scheduling/bookkeeping constant ("Others").
        fork_overhead_cycles: per-execution process-creation cost. Zero
            models the paper's persistent mode (§V-A1: "does not have
            any fork() call or initialization overheads"); classic
            fork-server AFL pays a few hundred microseconds per run.
    """

    def __init__(self, config: MapCostConfig, *,
                 machine: Machine = XEON_E5645,
                 exec_base_cycles: float = 60_000.0,
                 per_traversal_cycles: float = 110.0,
                 indirection_cycles: float = 2.0,
                 target_ws_bytes: int = 65_536,
                 others_cycles: float = 15_000.0,
                 fork_overhead_cycles: float = 0.0) -> None:
        for name, value in (("exec_base_cycles", exec_base_cycles),
                            ("per_traversal_cycles", per_traversal_cycles),
                            ("indirection_cycles", indirection_cycles),
                            ("others_cycles", others_cycles)):
            if value < 0:
                raise CalibrationError(f"{name} must be >= 0, got {value}")
        self.config = config
        self.machine = machine
        self.exec_base_cycles = exec_base_cycles
        self.per_traversal_cycles = per_traversal_cycles
        self.indirection_cycles = indirection_cycles
        self.target_ws_bytes = target_ws_bytes
        self.others_cycles = others_cycles
        if fork_overhead_cycles < 0:
            raise CalibrationError(
                f"fork_overhead_cycles must be >= 0, got "
                f"{fork_overhead_cycles}")
        self.fork_overhead_cycles = fork_overhead_cycles

    # -- residency -------------------------------------------------------

    def working_set_bytes(self, shape: ExecShape) -> int:
        """Total bytes one iteration touches (the W of the module doc)."""
        if self.config.kind == AFL:
            return 2 * self.config.map_size + self.target_ws_bytes
        index_lines = shape.unique_locations * self.machine.line_size
        return (2 * shape.used_bytes + index_lines + self.target_ws_bytes)

    def _level_index(self, footprint: int) -> int:
        """Smallest level holding ``footprint``; len(levels) = DRAM."""
        for i, level in enumerate(self.machine.levels):
            if footprint <= level.size_bytes:
                return i
        return len(self.machine.levels)

    def _seq_rate(self, level_idx: int, *, write: bool) -> float:
        if level_idx >= len(self.machine.levels):
            rate = self.machine.dram_seq_cycles_per_byte
            return rate * DRAM_WRITE_FACTOR if write else rate
        return self.machine.levels[level_idx].seq_cycles_per_byte

    def _scat_latency(self, level_idx: int) -> float:
        if level_idx >= len(self.machine.levels):
            return self.machine.dram_latency_cycles
        return self.machine.levels[level_idx].latency_cycles

    # -- per-operation pricing -------------------------------------------

    def _sweep(self, region_bytes: int, level_idx: int, *,
               write: bool = False, read_write: bool = False,
               non_temporal: bool = False) -> float:
        """Cycles for one sequential pass over ``region_bytes``."""
        if region_bytes <= 0:
            return 0.0
        if non_temporal:
            cycles = region_bytes * NON_TEMPORAL_RATE
        else:
            rate = self._seq_rate(level_idx, write=write or read_write)
            passes = 2.0 if read_write else 1.0
            cycles = region_bytes * rate * passes
        return cycles + sweep_walk_cycles(region_bytes, self.machine,
                                          self.config.huge_pages)

    def _scatter(self, n_accesses: int, region_bytes: int,
                 level_idx: int) -> float:
        """Cycles for data-dependent accesses within ``region_bytes``."""
        if n_accesses <= 0:
            return 0.0
        walk = scattered_walk_fraction(region_bytes, self.machine,
                                       self.config.huge_pages)
        per_access = self._scat_latency(level_idx) + \
            walk * self.machine.walk_cycles
        return n_accesses * per_access

    # -- iteration pricing -------------------------------------------------

    def exec_cycles(self, shape: ExecShape) -> OpCycles:
        """Cycle breakdown of one fuzzing iteration."""
        cfg = self.config
        level_w = self._level_index(self.working_set_bytes(shape))

        execution = (self.exec_base_cycles +
                     self.fork_overhead_cycles +
                     shape.traversals * self.per_traversal_cycles)
        if cfg.kind == AFL:
            active = cfg.map_size
            # Counter updates scatter over the full map span.
            execution += self._scatter(shape.unique_locations,
                                       cfg.map_size, level_w)
            reset_level = level_w
            hash_bytes = cfg.map_size
        else:
            active = shape.used_bytes
            # Index lookup per traversal (cheap: predicted branch + load
            # from a hot line) plus scattered index access per distinct
            # edge, plus dense counter writes into the condensed prefix.
            execution += shape.traversals * self.indirection_cycles
            index_region = cfg.map_size * cfg.index_entry_bytes
            execution += self._scatter(shape.unique_locations,
                                       index_region, level_w)
            # Hot-set rule: the condensed prefix is touched several
            # times per iteration and nothing streams over it, so it
            # stays resident at whatever level holds it — regardless of
            # the index lines and target data around it.
            dense_level = self._level_index(2 * shape.used_bytes)
            execution += self._scatter(shape.unique_locations,
                                       max(shape.used_bytes, 1),
                                       dense_level)
            reset_level = dense_level
            hash_bytes = shape.hash_bytes or shape.used_bytes

        sweep_level = level_w if cfg.kind == AFL else reset_level
        reset = self._sweep(active, reset_level, write=True,
                            non_temporal=cfg.non_temporal_reset)
        if cfg.merged_classify_compare:
            classify = 0.0
            compare = (self._sweep(active, sweep_level, read_write=True) +
                       self._sweep(active, sweep_level))
        else:
            classify = self._sweep(active, sweep_level, read_write=True)
            compare = (self._sweep(active, sweep_level) +
                       self._sweep(active, sweep_level))
        hash_cycles = self._sweep(hash_bytes, sweep_level) \
            if shape.interesting else 0.0

        return OpCycles(execution=execution, reset=reset,
                        classify=classify, compare=compare,
                        hash=hash_cycles, others=self.others_cycles)

    def exec_cycles_batch(self, traversals: np.ndarray,
                          unique_locations: np.ndarray, *,
                          used_bytes: int = 0) -> BatchOpCycles:
        """Price a batch of non-interesting executions at once.

        Equivalent to calling :meth:`exec_cycles` per trace with
        ``ExecShape(traversals[i], unique_locations[i], used_bytes)`` —
        and bit-identical to it, because every per-row term is computed
        with the same elementary float operations in the same order.
        ``used_bytes`` is a scalar: within one batch the coverage state
        is fixed (interesting traces replay the scalar path, and the
        caller re-prices the remainder when ``used_key`` moves).
        """
        cfg = self.config
        trav = np.asarray(traversals, dtype=np.int64)
        uniq = np.asarray(unique_locations, dtype=np.int64)
        execution = ((self.exec_base_cycles + self.fork_overhead_cycles) +
                     trav * self.per_traversal_cycles)

        if cfg.kind == AFL:
            # AFL's working set is shape-independent, so one residency
            # level covers the whole batch.
            level_w = self._level_index(
                2 * cfg.map_size + self.target_ws_bytes)
            walk = scattered_walk_fraction(cfg.map_size, self.machine,
                                           cfg.huge_pages)
            per_access = self._scat_latency(level_w) + \
                walk * self.machine.walk_cycles
            execution = execution + uniq * per_access
            active = cfg.map_size
            reset_level = level_w
        else:
            # BigMap's working set varies with unique_locations, so the
            # residency level of the index scatter is per-row.
            line = self.machine.line_size
            working_set = (2 * used_bytes + uniq * line +
                           self.target_ws_bytes)
            sizes = np.array([lvl.size_bytes
                              for lvl in self.machine.levels],
                             dtype=np.int64)
            level_rows = np.searchsorted(sizes, working_set, side="left")
            latency = np.array(
                [self._scat_latency(i)
                 for i in range(len(self.machine.levels) + 1)])
            execution = execution + trav * self.indirection_cycles
            index_region = cfg.map_size * cfg.index_entry_bytes
            walk_idx = scattered_walk_fraction(index_region, self.machine,
                                               cfg.huge_pages)
            per_access_idx = latency[level_rows] + \
                walk_idx * self.machine.walk_cycles
            execution = execution + uniq * per_access_idx
            dense_level = self._level_index(2 * used_bytes)
            walk_dense = scattered_walk_fraction(
                max(used_bytes, 1), self.machine, cfg.huge_pages)
            per_access_dense = self._scat_latency(dense_level) + \
                walk_dense * self.machine.walk_cycles
            execution = execution + uniq * per_access_dense
            active = used_bytes
            reset_level = dense_level

        sweep_level = reset_level
        reset = self._sweep(active, reset_level, write=True,
                            non_temporal=cfg.non_temporal_reset)
        if cfg.merged_classify_compare:
            classify = 0.0
            compare = (self._sweep(active, sweep_level, read_write=True) +
                       self._sweep(active, sweep_level))
        else:
            classify = self._sweep(active, sweep_level, read_write=True)
            compare = (self._sweep(active, sweep_level) +
                       self._sweep(active, sweep_level))

        return BatchOpCycles(execution=execution, reset=reset,
                             classify=classify, compare=compare,
                             hash=0.0, others=self.others_cycles)

    # -- cycle attribution -------------------------------------------------

    def _level_key(self, level_idx: int) -> str:
        if level_idx >= len(self.machine.levels):
            return "dram"
        return self.machine.levels[level_idx].name.lower()

    def _attribute_sweep(self, attr: dict, region_bytes: int,
                         level_idx: int, *, write: bool = False,
                         read_write: bool = False,
                         non_temporal: bool = False) -> None:
        """Add one sequential pass to ``attr`` (level, then TLB).

        Shared by :meth:`cycle_attribution` (float values) and
        :meth:`level_share_batch` (per-row arrays): sweep cycles never
        depend on the row, so both take the same ``+=`` in the same
        order."""
        if region_bytes <= 0:
            return
        if non_temporal:
            # NT stores stream past the hierarchy straight to DRAM.
            attr["dram"] += region_bytes * NON_TEMPORAL_RATE
        else:
            rate = self._seq_rate(level_idx, write=write or read_write)
            passes = 2.0 if read_write else 1.0
            attr[self._level_key(level_idx)] += \
                region_bytes * rate * passes
        attr["tlb"] += sweep_walk_cycles(region_bytes, self.machine,
                                         self.config.huge_pages)

    def cycle_attribution(self, shape: ExecShape) -> Dict[str, float]:
        """Where one iteration's cycles go: per hierarchy level + TLB.

        Returns ``{"core", "l1d", "l2", "llc", "dram", "tlb"}`` cycle
        totals that sum to ``exec_cycles(shape).total`` exactly — the
        same pricing walk as :meth:`exec_cycles`, but split by *where*
        each component is served instead of by *which operation* spent
        it. ``core`` holds the memory-independent work (target compute,
        indirection arithmetic, fork, bookkeeping); ``tlb`` holds page
        walks from both sweeps and scattered accesses. Telemetry feeds
        these as histogram observations (``memsim.share.*``), giving
        campaigns the per-execution tracing-cost decomposition the
        throughput figures are built from.
        """
        cfg = self.config
        attr = dict.fromkeys(ATTRIBUTION_KEYS, 0.0)

        def scatter(n_accesses: int, region_bytes: int,
                    level_idx: int) -> None:
            if n_accesses <= 0:
                return
            walk = scattered_walk_fraction(region_bytes, self.machine,
                                           cfg.huge_pages)
            attr[self._level_key(level_idx)] += \
                n_accesses * self._scat_latency(level_idx)
            attr["tlb"] += n_accesses * walk * self.machine.walk_cycles

        sweep = functools.partial(self._attribute_sweep, attr)

        level_w = self._level_index(self.working_set_bytes(shape))
        attr["core"] += (self.exec_base_cycles +
                         self.fork_overhead_cycles +
                         shape.traversals * self.per_traversal_cycles)
        if cfg.kind == AFL:
            active = cfg.map_size
            scatter(shape.unique_locations, cfg.map_size, level_w)
            reset_level = level_w
            hash_bytes = cfg.map_size
        else:
            active = shape.used_bytes
            attr["core"] += shape.traversals * self.indirection_cycles
            index_region = cfg.map_size * cfg.index_entry_bytes
            scatter(shape.unique_locations, index_region, level_w)
            dense_level = self._level_index(2 * shape.used_bytes)
            scatter(shape.unique_locations, max(shape.used_bytes, 1),
                    dense_level)
            reset_level = dense_level
            hash_bytes = shape.hash_bytes or shape.used_bytes

        sweep_level = level_w if cfg.kind == AFL else reset_level
        sweep(active, reset_level, write=True,
              non_temporal=cfg.non_temporal_reset)
        sweep(active, sweep_level, read_write=True)
        sweep(active, sweep_level)
        if not cfg.merged_classify_compare:
            # Unmerged classify+compare costs one extra plain sweep
            # over the region (rw + 2×plain vs merged's rw + plain).
            sweep(active, sweep_level)
        if shape.interesting:
            sweep(hash_bytes, sweep_level)
        attr["core"] += self.others_cycles
        return attr

    def level_share(self, shape: ExecShape) -> Dict[str, float]:
        """:meth:`cycle_attribution` normalized to fractions of total."""
        attr = self.cycle_attribution(shape)
        total = sum(attr.values())
        if total <= 0:
            return {key: 0.0 for key in attr}
        return {key: value / total for key, value in attr.items()}

    def level_share_batch(self, traversals: np.ndarray,
                          n_unique: np.ndarray, used_bytes: int = 0
                          ) -> Dict[str, np.ndarray]:
        """:meth:`level_share` for a batch of non-interesting executions.

        Row ``i`` of every returned array is bitwise equal to
        ``level_share(ExecShape(traversals[i], n_unique[i], used_bytes,
        interesting=False, hash_bytes=0))[key]``: the attribution walk
        runs once over whole columns, each level-keyed ``+=`` becomes a
        masked add (only the rows whose scalar walk performs that add
        take it) in the scalar order, and the normalizing sum folds the
        keys in the scalar dict order. ``used_bytes`` is a scalar, as in
        :meth:`exec_cycles_batch`.
        """
        cfg = self.config
        machine = self.machine
        trav = np.asarray(traversals, dtype=np.int64)
        uniq = np.asarray(n_unique, dtype=np.int64)
        keys = [self._level_key(i) for i in range(len(machine.levels) + 1)]
        n = trav.size
        attr = {key: np.zeros(n) for key in ATTRIBUTION_KEYS}
        hit = uniq > 0  # scatter() skips rows without accesses

        def scatter(region_bytes: int, level) -> None:
            walk = scattered_walk_fraction(region_bytes, machine,
                                           cfg.huge_pages)
            for idx, key in enumerate(keys):
                np.add(attr[key], uniq * self._scat_latency(idx),
                       out=attr[key], where=hit & (level == idx))
            np.add(attr["tlb"], uniq * walk * machine.walk_cycles,
                   out=attr["tlb"], where=hit)

        sweep = functools.partial(self._attribute_sweep, attr)

        attr["core"] += ((self.exec_base_cycles +
                          self.fork_overhead_cycles) +
                         trav * self.per_traversal_cycles)
        if cfg.kind == AFL:
            active = cfg.map_size
            level_w = self._level_index(
                2 * cfg.map_size + self.target_ws_bytes)
            scatter(cfg.map_size, level_w)
            sweep_level = level_w
        else:
            active = used_bytes
            attr["core"] += trav * self.indirection_cycles
            sizes = np.array([lvl.size_bytes for lvl in machine.levels],
                             dtype=np.int64)
            level_w = np.searchsorted(
                sizes, 2 * used_bytes + uniq * machine.line_size +
                self.target_ws_bytes, side="left")
            scatter(cfg.map_size * cfg.index_entry_bytes, level_w)
            sweep_level = self._level_index(2 * used_bytes)
            scatter(max(used_bytes, 1), sweep_level)
        sweep(active, sweep_level, write=True,
              non_temporal=cfg.non_temporal_reset)
        sweep(active, sweep_level, read_write=True)
        sweep(active, sweep_level)
        if not cfg.merged_classify_compare:
            sweep(active, sweep_level)
        attr["core"] += self.others_cycles

        total = attr["core"]
        for key in ATTRIBUTION_KEYS[1:]:
            total = total + attr[key]
        positive = total > 0
        return {key: np.divide(value, total, out=np.zeros(n),
                               where=positive)
                for key, value in attr.items()}

    def throughput(self, shape: ExecShape) -> float:
        """Executions per second for a steady stream of ``shape`` execs."""
        return self.machine.frequency_hz / self.exec_cycles(shape).total

    def dram_bytes_per_exec(self, shape: ExecShape) -> float:
        """Approximate DRAM traffic per iteration (drives contention).

        Sweeps whose residency level is DRAM stream their full region;
        scattered DRAM accesses move one line each. Zero when the
        working set fits in the LLC. The smaller the cache share
        relative to the working set, the *more* traffic each iteration
        moves (the target's own data misses too, and dirty map lines
        are written back mid-sweep) — this thrash amplification is what
        bends AFL's total throughput downward past the socket knee in
        Figure 9(a).
        """
        working_set = self.working_set_bytes(shape)
        level_w = self._level_index(working_set)
        if level_w < len(self.machine.levels):
            return 0.0
        cfg = self.config
        if cfg.kind == AFL:
            active = cfg.map_size
            sweep_passes = 4.0  # reset + classify/compare rw + virgin
            scattered = shape.unique_locations
        else:
            active = shape.used_bytes
            sweep_passes = 4.0
            scattered = 2 * shape.unique_locations
        base_traffic = (active * sweep_passes +
                        scattered * self.machine.line_size +
                        self.target_ws_bytes)
        overflow = 1.0 - min(1.0, self.machine.llc.size_bytes /
                             working_set)
        return base_traffic * (1.0 + 0.8 * overflow)
