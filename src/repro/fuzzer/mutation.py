"""Mutation engine: AFL's havoc stage, drawn and applied in batches.

Campaigns skip AFL's deterministic stage — exactly as in the paper's
evaluation setup (§V-A1) — and go straight to stacked random "havoc"
mutations with occasional splicing. A scheduled seed's whole energy is
drawn at once (:meth:`Mutator.havoc_draw`) and materialized later,
possibly fused with other seeds' draws and possibly in another process
(:meth:`Mutator.havoc_apply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dictionary import DictionaryDraw, DictionaryMixer

#: AFL's interesting values (8/16/32-bit), as unsigned patterns.
INTERESTING_8 = np.array([128, 255, 0, 1, 16, 32, 64, 100, 127],
                         dtype=np.uint8)
INTERESTING_16 = np.array([0x8000, 0xFFFF, 0, 1, 16, 32, 64, 100, 127,
                           0x7FFF, 128, 255, 256, 512, 1000, 1024, 4096],
                          dtype=np.uint16)
INTERESTING_32 = np.array([0x80000000, 0xFFFFFFFF, 0, 1, 16, 32, 64, 100,
                           0x7FFFFFFF, 32768, 65535, 65536, 100663045],
                          dtype=np.uint32)

#: Havoc stacking: 2^1 .. 2^HAVOC_STACK_POW2 operations per mutant.
HAVOC_STACK_POW2 = 7

#: Arithmetic mutation magnitude (AFL's ARITH_MAX).
ARITH_MAX = 35

#: Havoc block-operation size cap, as a fraction of the input.
_BLOCK_FRACTION = 0.25

#: Havoc op codes, in draw order (``op`` matrix values).
_FLIP, _BYTE, _WORD, _DWORD, _ARITH, _RANDOM, _DELETE, _INSERT, \
    _COPY, _FILL = range(10)


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + counts[i])``,
    concatenated in order (one repeat + one arange, whatever the mix)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + \
        np.arange(total, dtype=np.int64)


def stamp_tokens(flat: np.ndarray, lengths: np.ndarray, width: int,
                 mixer: DictionaryMixer, stamps: DictionaryDraw) -> None:
    """Stamp the drawn dictionary tokens into a flat ``(n, width)`` batch.

    A stamp overwrites the token at ``floor(pos * (size - tsize + 1))``
    (or over the whole row, clipped, when the token is at least as long
    as the row) when ``mode < 0.75`` or the row is no longer than the
    token; otherwise it inserts the token at ``floor(pos * (size + 1))``
    and the row grows, clipped at the width. An empty row becomes the
    token.
    """
    rows = np.flatnonzero(stamps.token >= 0)
    if not rows.size:
        return
    token = stamps.token[rows]
    tsize = mixer.sizes[token]
    size = lengths[rows]
    u = stamps.pos[rows]
    over = (size > 0) & ((stamps.mode[rows] < 0.75) | (size <= tsize))
    at = np.where(over, np.where(
        tsize >= size, 0, (u * (size - tsize + 1)).astype(np.int64)),
        (u * (size + 1)).astype(np.int64))
    new = np.where(over, size, np.minimum(width, size + tsize))
    spot = rows * width + at
    # Inserts shift [at, size) right by the token size, clipped.
    shift = np.where(over, 0, np.maximum(new - at - tsize, 0))
    moved = flat[_spans(spot, shift)]
    put = np.minimum(tsize, np.where(over, size, width) - at)
    flat[_spans(spot + tsize, shift)] = moved
    flat[_spans(spot, put)] = mixer.buffer[_spans(mixer.offsets[token],
                                                  put)]
    lengths[rows] = new


@dataclass
class MutantBatch:
    """A batch of mutants in padded-matrix form.

    Attributes:
        data: ``(n, width)`` uint8 matrix; every byte of row ``i`` at or
            past ``lengths[i]`` is zero (the executor relies on this).
        lengths: per-row logical lengths (``int64``).
    """

    data: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return int(self.data.shape[0])

    @property
    def width(self) -> int:
        return int(self.data.shape[1])

    def row(self, i: int) -> np.ndarray:
        """Exact-length uint8 view of mutant ``i``."""
        return self.data[i, :int(self.lengths[i])]

    def rows(self) -> list:
        """Exact-length views for all mutants, in order."""
        return [self.row(i) for i in range(self.n)]

    def tobytes(self, i: int) -> bytes:
        return self.row(i).tobytes()


@dataclass
class HavocDraw:
    """One seed's fully-drawn havoc randomness, not yet applied.

    Produced by :meth:`Mutator.havoc_draw`; consumed (possibly many at
    a time, possibly in another process) by :meth:`Mutator.havoc_apply`.
    It holds *all* of a mutant's randomness — splice decisions,
    stacking depths, the ``(rounds, n)`` per-op parameter matrices and
    the dictionary stamps — so application is a pure function of this
    record and the batch width: row ``i``'s mutant depends on column
    ``i`` of every matrix and nothing else (see :meth:`take`).

    Attributes:
        base: seed bytes as a uint8 view.
        partner: splice partner bytes, or None.
        n: number of mutants (the seed's energy).
        width: this draw's own padded width
            (:meth:`Mutator._batch_width`); a fused apply uses the max
            over the window.
        fill: random ``(n, min_len)`` fill for empty bases, else None.
        do_splice / cut_a / cut_b: splice mask and cut points, or None
            when splicing was not eligible.
        n_ops: per-mutant stacking depth.
        op / sel / val: ``(rounds, n)`` op codes, selectors and value
            bytes, or None when ``n`` is zero.
        f: ``(4, rounds, n)`` uniform floats (the four per-op position
            and size parameters), or None when ``n`` is zero.
        stamps: per-mutant dictionary stamps, or None without a
            dictionary.
    """

    base: np.ndarray
    partner: Optional[np.ndarray]
    n: int
    width: int
    fill: Optional[np.ndarray]
    do_splice: Optional[np.ndarray]
    cut_a: Optional[np.ndarray]
    cut_b: Optional[np.ndarray]
    n_ops: np.ndarray
    op: Optional[np.ndarray]
    f: Optional[np.ndarray]
    sel: Optional[np.ndarray]
    val: Optional[np.ndarray]
    stamps: Optional[DictionaryDraw] = None

    def take(self, a: int, b: int) -> "HavocDraw":
        """The same draw restricted to mutants ``[a, b)``.

        Applying the slice at the full draw's batch width reproduces
        rows ``a:b`` of the full apply bit for bit, which is what lets
        a process backend materialize only its own shard of a window.
        The parameter matrices are copied (contiguous, cut to the
        slice's deepest stack), so the full draw can be dropped.
        """
        depth = int(self.n_ops[a:b].max()) if b > a else 0

        def cols(m):
            return None if m is None else \
                np.ascontiguousarray(m[..., :depth, a:b])

        def rows(v):
            return None if v is None else v[a:b]

        return HavocDraw(
            base=self.base, partner=self.partner, n=b - a,
            width=self.width, fill=rows(self.fill),
            do_splice=rows(self.do_splice), cut_a=rows(self.cut_a),
            cut_b=rows(self.cut_b), n_ops=self.n_ops[a:b],
            op=cols(self.op), f=cols(self.f), sel=cols(self.sel),
            val=cols(self.val),
            stamps=None if self.stamps is None else self.stamps.take(a, b))


class Mutator:
    """Stateful random mutator (one per campaign instance).

    Args:
        rng: the campaign's random stream.
        max_len: hard cap on mutant length (AFL's MAX_FILE analogue).
        min_len: mutants are never shrunk below this.
        dictionary: optional tokens (AFL ``-x`` / autodictionary);
            havoc occasionally stamps one into the mutant.
    """

    def __init__(self, rng: np.random.Generator, *,
                 max_len: int = 8192, min_len: int = 4,
                 dictionary: Optional[Sequence[bytes]] = None) -> None:
        if min_len < 1 or max_len < min_len:
            raise ValueError(f"invalid length bounds [{min_len}, "
                             f"{max_len}]")
        self.rng = rng
        self.max_len = max_len
        self.min_len = min_len
        self.dictionary = DictionaryMixer(dictionary) \
            if dictionary else None

    def _batch_width(self, base_size: int, partner_size: int) -> int:
        """Padded-matrix width: room to grow, capped at ``max_len``."""
        longest = max(base_size, partner_size, self.min_len)
        return int(min(self.max_len, max(64, 2 * longest)))

    def havoc_draw(self, data: bytes, n: int,
                   splice_with: Optional[bytes] = None) -> "HavocDraw":
        """Draw one seed's whole havoc randomness, without applying it.

        This is the canonical havoc stream for campaigns: every
        execution strategy draws a scheduled seed's energy through this
        method, in schedule order, so the RNG consumption — and
        therefore every downstream decision — is identical no matter
        how (or in what grouping, or in which process) the mutants are
        later materialized. The draw order is fixed: random fill for
        empty bases, splice mask and cut points (one vector each),
        per-row stacking depths, then one ``(rounds, n)`` matrix per op
        parameter covering every round at once (op codes, four uniform
        floats, a selector and a value byte), then the dictionary
        stamps. The four float matrices are drawn as one
        ``(4, rounds, n)`` block, which consumes the stream exactly as
        four consecutive draws would.
        """
        rng = self.rng
        base = np.frombuffer(data, dtype=np.uint8)
        partner = None if splice_with is None else \
            np.frombuffer(splice_with, dtype=np.uint8)
        width = self._batch_width(base.size,
                                  0 if partner is None else partner.size)
        fill = None
        if not base.size:
            fill = rng.integers(0, 256, size=(n, self.min_len),
                                dtype=np.uint8)
        do_splice = cut_a = cut_b = None
        if partner is not None and partner.size > 2 and base.size > 2:
            do_splice = rng.random(n) < 0.5
            cut_a = rng.integers(1, base.size, size=n)
            cut_b = rng.integers(1, partner.size, size=n)
        n_ops = (1 << rng.integers(1, HAVOC_STACK_POW2 + 1,
                                   size=n)).astype(np.int64)
        rounds = int(n_ops.max()) if n else 0
        op_m = f_m = sel_m = val_m = None
        if rounds:
            op_m = rng.integers(0, 10, size=(rounds, n))
            f_m = rng.random((4, rounds, n))
            sel_m = rng.integers(0, 1 << 30, size=(rounds, n))
            val_m = rng.integers(0, 256, size=(rounds, n),
                                 dtype=np.uint8)
        stamps = self.dictionary.draw(rng, n) if self.dictionary else None
        return HavocDraw(base=base, partner=partner, n=n, width=width,
                         fill=fill, do_splice=do_splice, cut_a=cut_a,
                         cut_b=cut_b, n_ops=n_ops, op=op_m, f=f_m,
                         sel=sel_m, val=val_m, stamps=stamps)

    def havoc_apply(self, draws: Sequence["HavocDraw"],
                    width: Optional[int] = None) -> MutantBatch:
        """Materialize pre-drawn havoc stacks as one uniform batch.

        Row block ``k`` holds draw ``k``'s mutants, in draw order. All
        rows share one padded width — ``width`` when given, else the
        widest draw's — so a whole scheduling window's mutation work
        runs as a single :meth:`_apply_stacked` pass whose vectorized
        steps see ``sum(n_k)`` rows. Per-row results depend only on
        that row's own draw and the shared width (rows never interact),
        so applying :meth:`HavocDraw.take` slices at the window's width
        reproduces the matching rows of the whole window. RNG-free.

        The stack is applied in a canonical type-major order rather
        than strictly interleaved: each mutant's length-changing block
        ops run first (in round order), then every byte-level op is
        applied against the final geometry — bit flips, then
        arithmetic, then all overwrites with per-byte conflicts
        resolved in round order — and finally the dictionary stamp.
        Guard failures (word/dword on short rows, delete at the minimum
        length, insert at full width) fall back to the constant-block
        overwrite. Growth is bounded by the matrix width.

        Returns:
            :class:`MutantBatch`; rows are zero-padded past their
            logical lengths.
        """
        if width is None:
            width = max((d.width for d in draws), default=self.min_len)
        draws = [d for d in draws if d.n]  # zero-energy draws add no rows
        ns = np.array([d.n for d in draws], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(ns)))
        total = int(bounds[-1])
        mat = np.zeros((total, width), dtype=np.uint8)
        lengths = np.empty(total, dtype=np.int64)
        if not total:
            return MutantBatch(data=mat, lengths=lengths)
        flat = mat.reshape(-1)

        # Seed bytes (or the random fill of an empty seed) in every row.
        for k, d in enumerate(draws):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            if d.base.size:
                size = min(d.base.size, width)
                mat[lo:hi, :size] = d.base[:size]
            else:
                size = self.min_len
                mat[lo:hi, :size] = d.fill
            lengths[lo:hi] = size
        self._splice(flat, lengths, width, draws, bounds)

        # Live stack cells, one per (row, round < n_ops[row]), gathered
        # round-major per draw (every row's rounds stay ascending) into
        # preallocated arrays with flat takes.
        live = [np.flatnonzero(np.arange(d.op.shape[0])[:, None] < d.n_ops)
                for d in draws]
        ends = np.cumsum([idx.size for idx in live]).tolist()
        rows = np.empty(ends[-1], dtype=np.int64)
        rnds = np.empty_like(rows)
        op = np.empty_like(rows)
        sel = np.empty_like(rows)
        f = np.empty((4, ends[-1]))
        val = np.empty(ends[-1], dtype=np.uint8)
        for k, (d, idx) in enumerate(zip(draws, live)):
            cut = slice(ends[k] - idx.size, ends[k])
            np.divmod(idx, d.n, out=(rnds[cut], rows[cut]))
            rows[cut] += bounds[k]
            for src, dst in ((d.op, op), (d.sel, sel), (d.val, val)):
                np.take(src, idx, out=dst[cut], mode="clip")
            for j in range(4):
                np.take(d.f[j], idx, out=f[j, cut], mode="clip")
        del live
        self._apply_stacked(flat, lengths, width, rows, rnds,
                            op.astype(np.int8), f, sel, val)

        if self.dictionary:
            stamp_tokens(flat, lengths, width, self.dictionary,
                         DictionaryDraw.concat([d.stamps for d in draws]))
        return MutantBatch(data=mat, lengths=lengths)

    @staticmethod
    def _splice(flat: np.ndarray, lengths: np.ndarray, width: int,
                draws: Sequence["HavocDraw"], bounds: np.ndarray) -> None:
        """Splice the drawn rows of every draw at once.

        A spliced row is ``base[:cut_a] + partner[cut_b:]`` truncated to
        the width: the base prefix is already in place, so the row only
        needs the partner's suffix written from ``cut_a`` and the rest
        of the base's bytes cleared.
        """
        parts, rows, cut_a, cut_b, p_off, p_size = [], [], [], [], [], []
        offset = 0
        for k, d in enumerate(draws):
            if d.do_splice is None:
                continue
            hit = np.flatnonzero(d.do_splice)
            parts.append(d.partner)
            rows.append(hit + bounds[k])
            cut_a.append(d.cut_a[hit])
            cut_b.append(d.cut_b[hit])
            p_off.append(np.full(hit.size, offset, dtype=np.int64))
            p_size.append(np.full(hit.size, d.partner.size,
                                  dtype=np.int64))
            offset += d.partner.size
        if not parts:
            return
        rows = np.concatenate(rows)
        ca = np.minimum(np.concatenate(cut_a), width)
        cb = np.concatenate(cut_b)
        p_off = np.concatenate(p_off)
        old = lengths[rows]
        new = np.minimum(width, ca + np.concatenate(p_size) - cb)
        row0 = rows * width
        partners = np.concatenate(parts)
        # Gather before the writes: the partner bytes never alias mat.
        suffix = partners[_spans(p_off + cb, new - ca)]
        flat[_spans(row0 + new, np.maximum(old - new, 0))] = 0
        flat[_spans(row0 + ca, new - ca)] = suffix
        lengths[rows] = new

    def _apply_stacked(self, flat: np.ndarray, lengths: np.ndarray,
                       width: int, rows: np.ndarray, rnds: np.ndarray,
                       op: np.ndarray, f: np.ndarray, sel: np.ndarray,
                       val: np.ndarray) -> None:
        """Apply every mutant's havoc stack in canonical type-major order.

        Inputs are flat parallel arrays with one entry per live
        (row, round) stack cell, rounds ascending within each row
        (``f`` is ``(4, cells)``). One stable sort by op code groups
        the cells: each op's cells become one slice, and the delete and
        insert cells stay in per-row round order.

        Length-changing ops (delete/insert) run first, per mutant in
        round order, vectorized across mutants one stack position at a
        time (:meth:`_length_step`); the step-major cell order is
        computed once, so each step is a slice. Byte-level ops then run
        against the final geometry: XOR bit flips, then mod-256
        arithmetic (``ufunc.at`` handles duplicate targets), then every
        overwrite as a packed ``(round << 8) | value`` int16 entry, and
        one ``np.maximum.at`` keeps each byte's round-latest write —
        the bytes a sequential replay of the writes would leave behind
        (a byte's rounds are unique, so the max is the latest).
        """
        # Deletes and inserts share one group so a row's length cells
        # keep their round order.
        key = np.where(op == _INSERT, _DELETE, op)
        order = np.argsort(key, kind="stable")
        cuts = np.concatenate(([0], np.cumsum(
            np.bincount(key, minlength=10)))).tolist()
        rows, rnds, op = rows[order], rnds[order], op[order]
        f, sel, val = f[:, order], sel[order], val[order]

        def group(code):
            return slice(cuts[code], cuts[code + 1])

        # -- phase A: block deletes / inserts, sequential per mutant --
        fallback = self._length_ops(flat, lengths, width, group(_DELETE),
                                    rows, op, f, val)

        # -- phase B: byte-level ops against the final geometry --
        ln = lengths[rows]
        word, dword = (np.arange(cuts[code], cuts[code + 1])
                       for code in (_WORD, _DWORD))
        short_w, short_d = ln[word] < 2, ln[dword] < 4
        fills = np.concatenate((np.arange(cuts[_FILL], cuts[_FILL + 1]),
                                fallback, word[short_w], dword[short_d]))
        word, dword = word[~short_w], dword[~short_d]

        # Bit flips, then arithmetic: both commute within their kind.
        c = group(_FLIP)
        np.bitwise_xor.at(
            flat, rows[c] * width + (f[0, c] * ln[c]).astype(np.int64),
            np.uint8(1) << (f[1, c] * 8).astype(np.uint8))
        c = group(_ARITH)
        delta = 1 + (sel[c] % ARITH_MAX)
        delta = np.where(f[2, c] < 0.5, -delta, delta)
        np.add.at(flat, rows[c] * width + (f[0, c] * ln[c]).astype(np.int64),
                  delta.astype(np.uint8))

        # Overwrites: fold packed (round << 8) | value entries into a
        # per-byte max, one op group at a time (the max is order-free),
        # then give every written byte its round-latest value.
        acc = np.full(flat.size, -1, dtype=np.int16)

        def emit(cells, cols, values, reps=None):
            packed = (rnds[cells] << 8).astype(np.int16)
            if reps is not None:
                packed = np.repeat(packed, reps)
            np.maximum.at(acc, cols, packed | values)

        c = group(_BYTE)
        emit(c, rows[c] * width + (f[0, c] * ln[c]).astype(np.int64),
             INTERESTING_8[sel[c] % INTERESTING_8.size])
        c = group(_RANDOM)
        emit(c, rows[c] * width + (f[0, c] * ln[c]).astype(np.int64),
             val[c])
        for c, table in ((word, INTERESTING_16), (dword, INTERESTING_32)):
            nbytes = table.itemsize
            pos = rows[c] * width + \
                (f[0, c] * (ln[c] - nbytes + 1)).astype(np.int64)
            value = table[sel[c] % table.size]
            value = np.where(f[2, c] < 0.5, value.byteswap(), value)
            for byte in range(nbytes):
                emit(c, pos + byte,
                     ((value >> (8 * byte)) & 0xFF).astype(np.int16))
        c = group(_COPY)  # overwrite a block from elsewhere in the row
        n_ = ln[c]
        cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
        size = 1 + (f[1, c] * cap).astype(np.int64)
        row0 = rows[c] * width
        src = row0 + (f[0, c] * (n_ - size + 1)).astype(np.int64)
        dst = row0 + (f[2, c] * (n_ - size + 1)).astype(np.int64)
        from_cols = _spans(src, size)
        emit(c, from_cols + np.repeat(dst - src, size), flat[from_cols],
             size)
        c = fills  # constant block, plus guard fallbacks
        n_ = ln[c]
        cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
        size = 1 + (f[1, c] * cap).astype(np.int64)
        dst = rows[c] * width + (f[0, c] * (n_ - size + 1)).astype(np.int64)
        emit(c, _spans(dst, size), np.repeat(val[c], size), size)

        np.copyto(flat, acc.astype(np.uint8), where=acc >= 0)

    def _length_ops(self, flat: np.ndarray, lengths: np.ndarray,
                    width: int, group: slice, rows: np.ndarray,
                    op: np.ndarray, f: np.ndarray,
                    val: np.ndarray) -> np.ndarray:
        """Run the delete/insert cells ``group`` step by step; return
        the cells whose guard failed (they become constant-block fills).

        The group's cells are in per-row round order. Step ``s`` is
        every row's ``s``-th length op, so one stable sort by step
        makes each step a contiguous slice of pre-gathered parameters.
        """
        cells = np.arange(group.start, group.stop)
        if not cells.size:
            return cells
        r = rows[cells]
        by_row = np.argsort(r, kind="stable")
        per_row = np.bincount(r)
        step = np.empty(cells.size, dtype=np.int64)
        step[by_row] = np.arange(cells.size) - np.repeat(
            np.cumsum(per_row) - per_row, per_row)
        order = np.argsort(step, kind="stable")
        cells, r, step = cells[order], r[order], step[order]
        is_del = op[cells] == _DELETE
        a, b, c = (f[j, cells] for j in range(3))
        # An insert clones its block when f4 < 0.75, else fills it with
        # the cell's value byte; a delete fills the vacated tail with 0.
        clone = ~is_del & (f[3, cells] < 0.75)
        fill = np.where(is_del, 0, val[cells]).astype(np.uint8)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(step))))
        min_len = self.min_len
        fallback = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            rs, dl = r[lo:hi], is_del[lo:hi]
            ln = lengths[rs]
            bad = np.where(dl, ln <= min_len, ln >= width)
            if bad.any():
                fallback.append(cells[lo:hi][bad])
                good = ~bad
                if not good.any():
                    continue
                sl = np.flatnonzero(good) + lo
                rs, dl, ln = rs[good], dl[good], ln[good]
            else:
                sl = slice(lo, hi)
            lengths[rs] = self._length_step(flat, width, rs, dl, ln, a[sl],
                                            b[sl], c[sl], clone[sl],
                                            fill[sl])
        return np.concatenate(fallback) if fallback else cells[:0]

    def _length_step(self, flat: np.ndarray, width: int, r: np.ndarray,
                     is_del: np.ndarray, n_: np.ndarray, a: np.ndarray,
                     b: np.ndarray, c: np.ndarray, clone: np.ndarray,
                     fill: np.ndarray) -> np.ndarray:
        """One stack position of block deletes/inserts; new lengths.

        Each op rewrites one region of its row as two spans. A delete
        of ``[src, src+length)`` shifts ``[src+length, n)`` left by
        ``length`` and zeroes the vacated ``length`` bytes at the end;
        an insert at ``dst`` shifts ``[dst, n)`` right by ``length``
        (clipped at the width) and writes the block — cloned from
        ``[src, src+length)`` or the ``fill`` byte — into the gap. Rows
        in ``r`` are distinct and every span is gathered before any is
        written, so one gather and two scatters do the whole step.
        """
        cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
        length = 1 + (b * cap).astype(np.int64)
        # Delete's block start and insert's clone source share a formula.
        src = (a * (n_ - length + 1)).astype(np.int64)
        dst = (c * (n_ + 1)).astype(np.int64)  # unused for deletes
        shrunk = n_ - length
        grown = np.minimum(width, n_ + length)
        # Shifted span: into [to, to + count) from [to + shift, ...).
        to = np.where(is_del, src, dst + length)
        count = np.maximum(np.where(is_del, shrunk, grown) - to, 0)
        # Block span: the vacated tail (deletes) or the inserted block.
        blk = np.where(is_del, shrunk, dst)
        blk_n = np.minimum(length, np.where(is_del, n_, grown) - blk)
        row0 = r * width
        to += row0
        blk += row0
        copy_to = np.concatenate((to, blk[clone]))
        copy_from = np.concatenate((to + np.where(is_del, length, -length),
                                    (row0 + src)[clone]))
        copy_n = np.concatenate((count, blk_n[clone]))
        from_cols = _spans(copy_from, copy_n)
        moved = flat[from_cols]
        flat[from_cols + np.repeat(copy_to - copy_from, copy_n)] = moved
        const = ~clone
        flat[_spans(blk[const], blk_n[const])] = np.repeat(fill[const],
                                                          blk_n[const])
        return np.where(is_del, np.maximum(self.min_len, shrunk), grown)
