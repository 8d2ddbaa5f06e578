"""Perfect matchings and the field-dependent pairing weights that multiply
each Wick pairing in the trace-moment formulas.

Conventions.  Jumps are ordered pairs (from, to) of colors with from != to,
numbered 0..n-1.  A matching of n jumps is a partition of {0..n-1} into
disjoint pairs, stored as a tuple of (lo, hi) pairs sorted by their smaller
member, which keeps enumeration order canonical and test fixtures stable.
Jump sequences are treated as abstract ordered pairs here; whether
consecutive jumps chain is a property of the process that produced them
(concatenated paths reset their color at segment boundaries).

The quaternion weight rests on two identities for a standard quaternion
Gaussian g = (x0 + x1 i + x2 j + x3 k)/2 and a quaternion Q independent of
it: E[g Q g] = -conj(Q)/2 and E[g Q conj(g)] = Re Q.
"""

from __future__ import annotations

import numpy as np

Jump = tuple[int, int]
Matching = tuple[tuple[int, int], ...]


class MatchingSizeError(ValueError):
    """Raised for odd sizes or sizes above the configured enumeration cap."""


def reversed_jump(j: Jump) -> Jump:
    return (j[1], j[0])


def enumerate_matchings(n: int, n_max: int) -> list[Matching]:
    """All perfect matchings of {0..n-1}, in canonical order.

    The recursion pairs the smallest free index with every remaining index,
    which yields exactly (n-1)!! matchings.  n = 0 gives the single empty
    matching.
    """
    if n < 0 or n % 2 != 0:
        raise MatchingSizeError(f"matching size must be a nonnegative even integer, got {n}")
    if n > n_max:
        raise MatchingSizeError(f"matching size {n} exceeds cap {n_max}")

    def rec(free: tuple[int, ...]) -> list[Matching]:
        if not free:
            return [()]
        first, rest = free[0], free[1:]
        out = []
        for i, partner in enumerate(rest):
            remaining = rest[:i] + rest[i + 1:]
            for tail in rec(remaining):
                out.append(((first, partner),) + tail)
        return out

    return rec(tuple(range(n)))


def random_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniformly random perfect matching of {0..n-1}."""
    if n < 0 or n % 2 != 0:
        raise MatchingSizeError(f"matching size must be a nonnegative even integer, got {n}")
    free = list(range(n))
    pairs = []
    while free:
        first = free.pop(0)
        partner = free.pop(int(rng.integers(len(free))))
        pairs.append((first, partner))
    return tuple(pairs)


def validate_matching(p: Matching, n: int) -> None:
    seen = [idx for pair in p for idx in pair]
    if sorted(seen) != list(range(n)):
        raise ValueError(f"pairs {p} do not partition 0..{n - 1}")


def _pair_relation(j1: Jump, j2: Jump) -> str | None:
    """'same', 'reversed', or None when the jumps are unrelated."""
    if j1 == j2:
        return "same"
    if j1 == reversed_jump(j2):
        return "reversed"
    return None


def _word_weight(word: tuple[tuple[int, bool], ...]) -> float:
    """E Re of the ordered product of a word of slots (pair, conjugated?),
    the two slots of a pair holding one standard quaternion Gaussian g.

    Eliminates the first slot's pair by the module's identities, with Q the
    sub-word inside the pair and R the rest: g Q g R gives -Re conj(Q) R / 2
    and g Q conj(g) R gives Re Q Re R = (Re QR + Re conj(Q) R) / 2, where
    conj(Q) reverses Q and flips each slot's conjugation.
    """
    if not word:
        return 1.0
    (pair, conj), rest = word[0], word[1:]
    k = next(i for i, slot in enumerate(rest) if slot[0] == pair)
    inner, outer = rest[:k], rest[k + 1:]
    flipped = tuple((q, not c) for q, c in reversed(inner))
    if rest[k][1] == conj:
        return -0.5 * _word_weight(flipped + outer)
    return 0.5 * (_word_weight(inner + outer) + _word_weight(flipped + outer))


def constant_c(kind: str, jumps, p: Matching) -> float:
    """Field-dependent weight of one Wick pairing of the jump sequence.

    R: 1 when every matched pair is the same jump up to orientation, else 0.
    C: 1 when every matched pair is reversed, else 0.
    H: when the R condition holds, E Re of the ordered product of standard
    quaternion Gaussians, one per pair, the second member conjugated when
    the pair is reversed; else 0.  Always lies in [-1, 1].
    """
    jumps = [tuple(j) for j in jumps]
    n = len(jumps)
    if len(p) * 2 != n:
        raise ValueError("matching does not cover the jump sequence")
    validate_matching(p, n)
    relations = []
    for l1, l2 in p:
        rel = _pair_relation(jumps[min(l1, l2)], jumps[max(l1, l2)])
        if rel is None:
            return 0.0
        relations.append(rel)
    if kind == "R":
        return 1.0
    if kind == "C":
        return 1.0 if all(rel == "reversed" for rel in relations) else 0.0
    if kind == "H":
        slots = [None] * n
        for k, ((l1, l2), rel) in enumerate(zip(p, relations)):
            slots[min(l1, l2)] = (k, False)
            slots[max(l1, l2)] = (k, rel == "reversed")
        return _word_weight(tuple(slots))
    raise ValueError(f"unknown field kind {kind!r}")
