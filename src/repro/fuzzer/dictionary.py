"""Fuzzing dictionaries: user tokens and compare-operand extraction.

AFL accepts a dictionary (``-x``) of magic tokens that havoc splices
into inputs; AFL++'s *autodictionary* extracts the operands of
comparison instructions at instrumentation time. Both matter to the
BigMap story: a dictionary is the *other* way (besides laf-intel) that
multi-byte magic compares become reachable, and reaching them is what
creates the map pressure BigMap exists to absorb.

:func:`extract_dictionary` is the autodictionary analogue for our
synthetic targets: it collects the magic operands of ``EQ_MULTI``
guards (deduplicated, deterministic order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..target.cfg import Guard, Program

#: Keep dictionaries bounded, as AFL does (MAX_AUTO_EXTRAS analogue).
MAX_TOKENS = 512


def extract_dictionary(program: Program, *,
                       max_tokens: int = MAX_TOKENS) -> List[bytes]:
    """Compare-operand tokens of ``program`` (autodictionary).

    Returns the distinct multi-byte magic values the target compares
    against, in deterministic (sorted) order, capped at ``max_tokens``.
    """
    multi = np.flatnonzero(program.kind == np.uint8(Guard.EQ_MULTI))
    tokens = set()
    for edge in multi.tolist():
        width = int(program.width[edge])
        tokens.add(bytes(program.magic[edge, :width]))
    return sorted(tokens)[:max_tokens]


@dataclass
class DictionaryDraw:
    """Per-mutant dictionary randomness, drawn with the havoc stack.

    Attributes:
        token: index of the token to stamp, or -1 for no stamp.
        mode: uniform float choosing overwrite (< 0.75) or insert.
        pos: uniform float placing the token in the mutant.
    """

    token: np.ndarray
    mode: np.ndarray
    pos: np.ndarray

    def take(self, a: int, b: int) -> "DictionaryDraw":
        return DictionaryDraw(token=self.token[a:b], mode=self.mode[a:b],
                              pos=self.pos[a:b])

    @staticmethod
    def concat(draws: Sequence["DictionaryDraw"]) -> "DictionaryDraw":
        return DictionaryDraw(
            token=np.concatenate([d.token for d in draws]),
            mode=np.concatenate([d.mode for d in draws]),
            pos=np.concatenate([d.pos for d in draws]))


class DictionaryMixer:
    """Applies dictionary tokens during havoc.

    Used by :class:`~repro.fuzzer.mutation.Mutator` when a dictionary
    is supplied: with probability ``use_probability`` per havoc mutant,
    one token is overwritten into (or inserted at) a random position —
    AFL's ``EXTRAS`` havoc cases. The randomness is drawn per seed with
    the rest of its havoc stack (:meth:`draw`); stamping the tokens
    into finished mutants is RNG-free
    (:func:`~repro.fuzzer.mutation.stamp_tokens`).
    """

    def __init__(self, tokens: Sequence[bytes], *,
                 use_probability: float = 0.25) -> None:
        if not 0 <= use_probability <= 1:
            raise ValueError(f"use_probability must be in [0, 1], got "
                             f"{use_probability}")
        self.tokens = [t for t in tokens if t]
        self.use_probability = use_probability
        #: All tokens back to back, with each token's offset and size.
        self.buffer = np.frombuffer(b"".join(self.tokens), dtype=np.uint8)
        self.sizes = np.array([len(t) for t in self.tokens],
                              dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def draw(self, rng: np.random.Generator, n: int) -> DictionaryDraw:
        """Draw ``n`` mutants' stamps: a use mask, a token index, a mode
        and a position float per mutant, one vector each."""
        use = rng.random(n) < self.use_probability
        token = rng.integers(0, len(self.tokens), size=n)
        return DictionaryDraw(token=np.where(use, token, -1),
                              mode=rng.random(n), pos=rng.random(n))

    def maybe_apply(self, buf: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        """Possibly stamp one token into ``buf``; returns the result.

        One-buffer form of the batched stamp: draws one mutant's stamp
        and applies it with room for any insertion.
        """
        from .mutation import stamp_tokens
        if not self.tokens:
            return buf
        width = buf.size + int(self.sizes.max())
        row = np.zeros(width, dtype=np.uint8)
        row[:buf.size] = buf
        lengths = np.array([buf.size], dtype=np.int64)
        stamp_tokens(row, lengths, width, self, self.draw(rng, 1))
        return row[:int(lengths[0])]
