"""Per-level cycle attribution: the telemetry-facing decomposition of
``exec_cycles`` must account for every cycle exactly, across every
pricing branch of the model."""

import itertools

import numpy as np
import pytest

from repro.memsim import (AFL, BIGMAP, BitmapCostModel, ExecShape,
                          MapCostConfig)

LEVEL_KEYS = ("core", "l1d", "l2", "llc", "dram", "tlb")

SHAPES = (
    ExecShape(traversals=16_000, unique_locations=9_000,
              used_bytes=30_000),
    ExecShape(traversals=400, unique_locations=250, used_bytes=900,
              interesting=True, hash_bytes=900),
)


def variants():
    for kind, size, merged, nt, huge in itertools.product(
            (AFL, BIGMAP), (1 << 16, 1 << 23), (True, False),
            (True, False), (True, False)):
        yield BitmapCostModel(MapCostConfig(
            kind, size, merged_classify_compare=merged,
            non_temporal_reset=nt, huge_pages=huge))


@pytest.mark.parametrize("shape", SHAPES)
def test_attribution_sums_to_exec_cycles_total(shape):
    for model in variants():
        attribution = model.cycle_attribution(shape)
        assert set(attribution) == set(LEVEL_KEYS)
        assert all(v >= 0.0 for v in attribution.values())
        total = model.exec_cycles(shape).total
        assert sum(attribution.values()) == pytest.approx(
            total, rel=1e-12), model.config


def test_level_share_normalizes():
    model = BitmapCostModel(MapCostConfig(AFL, 1 << 23))
    share = model.level_share(SHAPES[0])
    assert set(share) == set(LEVEL_KEYS)
    assert sum(share.values()) == pytest.approx(1.0)
    assert all(0.0 <= v <= 1.0 for v in share.values())


def test_afl_large_map_attribution_leaves_core():
    """Figure 3's story in attribution form: at 8M the AFL sweeps are
    priced out of cache, so dram + llc must carry real weight."""
    small = BitmapCostModel(MapCostConfig(AFL, 1 << 16))
    large = BitmapCostModel(MapCostConfig(AFL, 1 << 23))
    shape = SHAPES[0]
    small_share = small.level_share(shape)
    large_share = large.level_share(shape)
    assert large_share["dram"] + large_share["llc"] > \
        small_share["dram"] + small_share["llc"]


def test_non_temporal_reset_moves_reset_to_dram():
    shape = SHAPES[0]
    nt = BitmapCostModel(MapCostConfig(
        AFL, 1 << 23, non_temporal_reset=True))
    plain = BitmapCostModel(MapCostConfig(
        AFL, 1 << 23, non_temporal_reset=False))
    assert nt.cycle_attribution(shape)["dram"] > 0.0
    # NT stores bypass the hierarchy: totals still fully accounted.
    assert sum(nt.cycle_attribution(shape).values()) == pytest.approx(
        nt.exec_cycles(shape).total, rel=1e-12)
    assert sum(plain.cycle_attribution(shape).values()) == pytest.approx(
        plain.exec_cycles(shape).total, rel=1e-12)


# -- level_share_batch: the bulk form the batched campaign deposits -----

#: Small target working set so the L1d boundary is reachable too.
BATCH_TARGET_WS = 1024


def _batch_rows(model, used_bytes):
    """(traversals, n_unique) rows: zero-access rows plus, for BigMap,
    working sets exactly on and just past every cache-level boundary."""
    uniq = [0, 0, 1, 3, 250, 9_000]
    if model.config.kind == BIGMAP:
        line = model.machine.line_size
        base = 2 * used_bytes + model.target_ws_bytes
        for level in model.machine.levels:
            fit, rem = divmod(level.size_bytes - base, line)
            assert rem == 0
            if fit >= 1:
                uniq += [fit - 1, fit, fit + 1]
    trav = [(7 * u + 13 * k) % 50_000 for k, u in enumerate(uniq)]
    return (np.array(trav, dtype=np.int64),
            np.array(uniq, dtype=np.int64))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind,map_size", [
    (AFL, 1 << 12), (AFL, 1 << 16), (AFL, 1 << 20), (AFL, 1 << 23),
    (BIGMAP, 1 << 16), (BIGMAP, 1 << 23)])
@pytest.mark.parametrize("huge", [True, False])
@pytest.mark.parametrize("nt", [True, False])
@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("used_bytes", [0, 512, 200_000, 4_000_000])
def test_level_share_batch_is_bitwise_scalar(kind, map_size, huge, nt,
                                             merged, used_bytes):
    model = BitmapCostModel(
        MapCostConfig(kind, map_size, merged_classify_compare=merged,
                      non_temporal_reset=nt, huge_pages=huge),
        target_ws_bytes=BATCH_TARGET_WS)
    trav, uniq = _batch_rows(model, used_bytes)
    batch = model.level_share_batch(trav, uniq, used_bytes)
    assert list(batch) == list(LEVEL_KEYS)
    for i, (t, u) in enumerate(zip(trav.tolist(), uniq.tolist())):
        scalar = model.level_share(ExecShape(
            traversals=t, unique_locations=u, used_bytes=used_bytes,
            interesting=False, hash_bytes=0))
        for key in LEVEL_KEYS:
            assert _bits(batch[key][i]) == _bits(scalar[key]), (i, key)


def test_level_share_batch_rows_cross_every_level():
    """Guard against a vacuous sweep: the BigMap rows must land in
    every residency level, DRAM included."""
    model = BitmapCostModel(MapCostConfig(BIGMAP, 1 << 16),
                            target_ws_bytes=BATCH_TARGET_WS)
    trav, uniq = _batch_rows(model, 512)
    levels = {model._level_index(model.working_set_bytes(ExecShape(
        traversals=int(t), unique_locations=int(u), used_bytes=512)))
        for t, u in zip(trav, uniq)}
    assert levels == set(range(len(model.machine.levels) + 1))


def test_level_share_batch_empty():
    model = BitmapCostModel(MapCostConfig(BIGMAP, 1 << 16))
    batch = model.level_share_batch(np.zeros(0, np.int64),
                                    np.zeros(0, np.int64), 100)
    assert all(values.size == 0 for values in batch.values())
