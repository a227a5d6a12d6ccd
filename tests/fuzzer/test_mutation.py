"""Unit tests for the mutation engine (havoc draw + apply)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Mutator


def make_mutator(seed=0, **kwargs):
    return Mutator(np.random.default_rng(np.random.PCG64(seed)),
                   **kwargs)


def one_seed_batch(mutator, data, n, splice_with=None):
    """``n`` mutants of one seed: one draw, applied on its own."""
    return mutator.havoc_apply([mutator.havoc_draw(data, n, splice_with)])


def havoc(mutator, data, splice_with=None):
    """One mutant of ``data``, as bytes."""
    return one_seed_batch(mutator, data, 1, splice_with).tobytes(0)


class TestHavoc:
    def test_deterministic_for_same_stream(self):
        a, b = make_mutator(7), make_mutator(7)
        data = bytes(range(64))
        for _ in range(20):
            assert havoc(a, data) == havoc(b, data)

    def test_usually_changes_input(self):
        mutator = make_mutator(1)
        data = bytes(64)
        changed = sum(havoc(mutator, data) != data for _ in range(50))
        assert changed >= 45

    def test_length_bounds(self):
        mutator = make_mutator(2, max_len=128, min_len=4)
        data = bytes(100)
        for _ in range(300):
            mutant = havoc(mutator, data)
            assert 4 <= len(mutant) <= 128

    def test_empty_input_handled(self):
        mutator = make_mutator(3)
        mutant = havoc(mutator, b"")
        assert len(mutant) >= 1

    def test_splice_mixes_partners(self):
        mutator = make_mutator(4)
        a = bytes([0xAA]) * 64
        b = bytes([0xBB]) * 64
        spliced_bytes = set()
        for _ in range(40):
            spliced_bytes.update(havoc(mutator, a, splice_with=b))
        assert 0xBB in spliced_bytes, "splice partner bytes never appear"

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_mutator(max_len=2, min_len=4)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=256), st.integers(0, 1000))
    def test_never_crashes_on_arbitrary_input(self, data, seed):
        """min_len only guards deletions — inputs that are already
        shorter may stay short, but mutants are never empty and never
        exceed the cap."""
        mutator = make_mutator(seed)
        mutant = havoc(mutator, data)
        assert isinstance(mutant, bytes)
        assert 1 <= len(mutant) <= max(mutator.max_len, len(data))


class TestHavocBatch:
    def test_deterministic_for_same_stream(self):
        a, b = make_mutator(7), make_mutator(7)
        data = bytes(range(64))
        for _ in range(5):
            ba = one_seed_batch(a, data, 16, splice_with=bytes(range(32)))
            bb = one_seed_batch(b, data, 16, splice_with=bytes(range(32)))
            assert np.array_equal(ba.data, bb.data)
            assert np.array_equal(ba.lengths, bb.lengths)

    def test_zero_padding_invariant(self):
        mutator = make_mutator(3)
        for trial in range(10):
            batch = one_seed_batch(mutator, bytes(range(40)), 32,
                                   splice_with=bytes(range(20)))
            for i in range(batch.n):
                tail = batch.data[i, int(batch.lengths[i]):]
                assert not tail.any(), f"trial {trial} row {i}"

    def test_length_bounds(self):
        mutator = make_mutator(5, max_len=128, min_len=4)
        for data_len in (1, 4, 40, 128):
            batch = one_seed_batch(mutator, bytes(data_len), 24)
            assert batch.width <= 128
            # Deletes never shrink below min_len; shorter inputs can
            # only grow.
            assert (batch.lengths >= min(data_len, 4)).all()
            assert (batch.lengths <= batch.width).all()

    def test_usually_changes_input(self):
        mutator = make_mutator(1)
        data = bytes(64)
        batch = one_seed_batch(mutator, data, 50)
        changed = sum(batch.tobytes(i) != data for i in range(50))
        assert changed >= 45

    def test_rows_are_diverse(self):
        mutator = make_mutator(9)
        batch = one_seed_batch(mutator, bytes(range(64)), 64)
        assert len({batch.tobytes(i) for i in range(64)}) >= 32

    def test_empty_input_yields_min_len_rows(self):
        mutator = make_mutator(2, min_len=4)
        batch = one_seed_batch(mutator, b"", 8)
        assert (batch.lengths >= 4).all()
        assert any(batch.row(i).any() for i in range(batch.n))

    def test_splice_mixes_partner_bytes(self):
        mutator = make_mutator(11)
        data, partner = b"\x01" * 64, b"\x02" * 64
        batch = one_seed_batch(mutator, data, 40, splice_with=partner)
        has_partner = sum(bool((batch.row(i) == 2).any())
                          for i in range(batch.n))
        assert has_partner >= 10

    def test_dictionary_tokens_appear(self):
        token = b"MAGICTOKEN"
        mutator = Mutator(np.random.default_rng(np.random.PCG64(4)),
                          dictionary=[token])
        batch = one_seed_batch(mutator, bytes(64), 80)
        stamped = sum(token in batch.tobytes(i) for i in range(batch.n))
        assert stamped >= 5

    def test_row_views_match_tobytes(self):
        mutator = make_mutator(6)
        batch = one_seed_batch(mutator, bytes(range(32)), 10)
        for i, view in enumerate(batch.rows()):
            assert view.tobytes() == batch.tobytes(i)


# -- golden contract ------------------------------------------------------
#
# Digests of every MutantBatch (bytes, lengths, shape) plus the RNG state
# after the draws, over seeded sweeps, recorded from the reference
# kernel this one replaced (per-op boolean-mask passes, scalar deep-stack
# tail, per-row splice loop). The kernel is free to change how it
# computes a window, never what it computes or how much randomness the
# draws consume. Dictionary campaigns are outside the sweep: their
# stamps moved from apply time into havoc_draw.

SIZES = (0, 1, 2, 3, 4, 5, 7, 16, 63, 64, 65, 200, 700)
ENERGIES = (1, 2, 3, 8, 17, 40, 96)

GOLDEN = {
    "splice":
        "35a7bcb1b3ae87bf097cc8bdee8139449d29b9c168f5330cf0d57e4f13f630b5",
    "empty_base":
        "2ca100f57fbd7581822946eba8772aa1581622d671781d1a64bcf59cf1d69332",
    "guards":
        "581a690aefa249c03de179602c4932623414a78d9104fac8a348571d7cc44ef6",
    "long_base":
        "c3a060c231dd4fa36667225a6c9db0b6feb541a0d6338c33029b745eeedb1dae",
    "mixed":
        "5c96b38a41d2892f8211a2e1fac6df593c73b5a8c79c0c4adf340e4f9298fd60",
}


def _bytes(gen, size):
    return gen.integers(0, 256, size, dtype=np.uint8).tobytes()


def golden_cases(category):
    """40 seeded windows of one category:
    ``(min_len, max_len, rng_seed, [(data, energy, partner), ...])``.

    * ``splice``: splice-eligible seed and partner;
    * ``empty_base``: empty seeds (random fill), with or without partner;
    * ``guards``: tiny inputs against ``min_len``/``max_len``, so the
      delete/insert/word/dword guards fall back;
    * ``long_base``: seeds (and partners) longer than the batch width;
    * ``mixed``: 2-6 draws of mixed widths fused into one window.
    """
    gen = np.random.default_rng([20261018, sum(map(ord, category))])
    out = []
    for _ in range(40):
        min_len = int(gen.choice([1, 2, 4, 8]))
        max_len = max(min_len, int(gen.choice([16, 40, 64, 128, 512,
                                                8192])))
        if category == "splice":
            specs = [(int(gen.choice(SIZES[3:])),
                      int(gen.choice(SIZES[3:])))]
        elif category == "empty_base":
            specs = [(0, int(gen.choice(SIZES)) if gen.random() < 0.5
                      else None)]
        elif category == "guards":
            min_len = int(gen.choice([4, 8, 16]))
            max_len = int(gen.choice([min_len, min_len + 1, 2 * min_len,
                                      64]))
            specs = [(int(gen.integers(1, 2 * min_len + 2)),
                      int(gen.integers(0, 2 * min_len))
                      if gen.random() < 0.5 else None)]
        elif category == "long_base":
            max_len = int(gen.choice([16, 40, 64]))
            specs = [(int(gen.integers(max_len + 1, 4 * max_len)),
                      int(gen.integers(0, 4 * max_len))
                      if gen.random() < 0.5 else None)]
        else:
            specs = [(int(gen.choice(SIZES)),
                      int(gen.choice(SIZES)) if gen.random() < 0.6
                      else None) for _ in range(int(gen.integers(2, 7)))]
        draws = []
        for size, psize in specs:
            data = _bytes(gen, size)
            partner = None if psize is None else _bytes(gen, psize)
            draws.append((data, int(gen.choice(ENERGIES)), partner))
        out.append((min_len, max_len, int(gen.integers(0, 1 << 30)),
                    draws))
    return out


def golden_draws(min_len, max_len, seed, specs, **kwargs):
    rng = np.random.default_rng(np.random.PCG64(seed))
    mutator = Mutator(rng, min_len=min_len, max_len=max_len, **kwargs)
    drawn = [mutator.havoc_draw(d, n, splice_with=p) for d, n, p in specs]
    return mutator, drawn


class TestGoldenContract:
    @pytest.mark.parametrize("category", sorted(GOLDEN))
    def test_batches_and_stream_match_reference(self, category):
        h = hashlib.sha256()
        for min_len, max_len, seed, specs in golden_cases(category):
            mutator, drawn = golden_draws(min_len, max_len, seed, specs)
            batch = mutator.havoc_apply(drawn)
            h.update(np.ascontiguousarray(batch.data).tobytes())
            h.update(batch.lengths.astype(np.int64).tobytes())
            h.update(repr(batch.data.shape).encode())
            h.update(repr(mutator.rng.bit_generator.state["state"])
                     .encode())
        assert h.hexdigest() == GOLDEN[category]

    @pytest.mark.parametrize("category", sorted(GOLDEN))
    @pytest.mark.parametrize("dictionary", [None, [b"\xde\xad", b"TOKEN!"]])
    def test_take_reproduces_window_rows(self, category, dictionary):
        """Applying ``take(a, b)`` slices at the window width gives rows
        ``[a, b)`` of the full apply — any split, any draw boundary."""
        split = np.random.default_rng(sum(map(ord, category)))
        for min_len, max_len, seed, specs in golden_cases(category)[:12]:
            mutator, drawn = golden_draws(min_len, max_len, seed, specs,
                                          dictionary=dictionary)
            full = mutator.havoc_apply(drawn)
            bounds = np.cumsum([0] + [d.n for d in drawn])
            lo, hi = sorted(split.integers(0, full.n + 1, size=2))
            parts = []
            for d, start in zip(drawn, bounds[:-1]):
                a, b = max(lo, start) - start, min(hi, start + d.n) - start
                if a < b:
                    parts.append(d.take(int(a), int(b)))
            shard = mutator.havoc_apply(parts, width=full.width)
            assert np.array_equal(shard.data, full.data[lo:hi])
            assert np.array_equal(shard.lengths, full.lengths[lo:hi])

    def test_apply_does_not_touch_the_rng(self):
        mutator = Mutator(np.random.default_rng(5), dictionary=[b"abcd"])
        drawn = [mutator.havoc_draw(bytes(range(50)), 30,
                                    splice_with=bytes(40))]
        state = mutator.rng.bit_generator.state
        mutator.havoc_apply(drawn)
        assert mutator.rng.bit_generator.state == state


class TestZeroEnergy:
    """Zero-energy draws are legal and add no rows, wherever they sit."""

    def test_lone_zero_energy_draw(self):
        mutator = make_mutator(1)
        batch = one_seed_batch(mutator, b"abcdefghij", 0)
        assert batch.n == 0 and batch.lengths.size == 0

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_zero_energy_draw_inside_a_window(self, position):
        mutator = make_mutator(2)
        drawn = [mutator.havoc_draw(bytes(range(30)), 9),
                 mutator.havoc_draw(bytes(range(90)), 7)]
        empty = mutator.havoc_draw(b"abcdefghij", 0)
        reference = mutator.havoc_apply(drawn)
        window = drawn[:position] + [empty] + drawn[position:]
        batch = mutator.havoc_apply(window, width=reference.width)
        assert np.array_equal(batch.data, reference.data)
        assert np.array_equal(batch.lengths, reference.lengths)

    def test_empty_window(self):
        batch = make_mutator(3).havoc_apply([])
        assert batch.n == 0
