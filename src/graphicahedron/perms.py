"""Permutation arithmetic and Young-subgroup coset machinery.

Permutations are plain tuples in one-line notation: ``a[x]`` is the image of
point ``x``, with points ``0..p-1``.  All arithmetic is 0-based; user-facing
layers (parsers, reports, DOT output) convert to 1-based labels at the
boundary.

A *vertex partition* splits the points into blocks; the permutations that
preserve every block setwise form a Young subgroup (a direct product of
symmetric groups, one per block).  A right coset ``H·a`` of such a subgroup
is never materialized here: it is identified by its lexicographically least
member, which ``canonical_rep`` computes in O(p), so coset equality is plain
tuple equality.  ``coset_reps`` computes a partition's representatives as
lex ranks and returns the shared table ``perms_by_lex_rank`` at them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CapacityError

Perm = tuple[int, ...]


def identity(p: int) -> Perm:
    """The identity permutation on ``p`` points."""
    return tuple(range(p))


def compose(a: Perm, b: Perm) -> Perm:
    """Compose two permutations, applying ``b`` first: ``compose(a, b)(x) == a(b(x))``.

    >>> compose((1, 0, 2), (0, 2, 1))
    (1, 2, 0)
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: cannot compose permutations on {len(a)} and {len(b)} points")
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for x, v in enumerate(a):
        inv[v] = x
    return tuple(inv)


def conjugate(a: Perm, k: Perm) -> Perm:
    """Return ``k·a·k⁻¹``, i.e. ``a`` with its points relabeled through ``k``."""
    if len(a) != len(k):
        raise ValueError(f"size mismatch: cannot conjugate on {len(a)} by {len(k)} points")
    out = [0] * len(a)
    for x, ax in enumerate(a):
        out[k[x]] = k[ax]
    return tuple(out)


def transposition_of_edge(p: int, edge: tuple[int, int]) -> Perm:
    """The transposition attached to a graph edge ``{i, j}`` (0-based endpoints)."""
    i, j = edge
    if not (0 <= i < p and 0 <= j < p):
        raise ValueError(f"points {i}, {j} out of range for p={p}")
    if i == j:
        raise ValueError(f"loop edge: transposition needs two distinct points, got {i} twice")
    word = list(range(p))
    word[i], word[j] = j, i
    return tuple(word)


@dataclass(frozen=True)
class VertexPartition:
    """A partition of ``0..p-1`` into blocks, with blocks ordered by smallest member.

    The ordering convention makes equality structural: two partitions with the
    same blocks always compare equal, and ``block_of[v]`` gives the index of
    the block containing ``v``.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        ordered = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        flat = sorted(v for b in ordered for v in b)
        if flat != list(range(len(flat))):
            raise ValueError("blocks do not partition 0..p-1")
        block_of = [0] * len(flat)
        for idx, b in enumerate(ordered):
            for v in b:
                block_of[v] = idx
        return cls(ordered, tuple(block_of))

    @classmethod
    def singletons(cls, p: int) -> "VertexPartition":
        return cls.from_blocks([v] for v in range(p))

    @property
    def p(self) -> int:
        return len(self.block_of)


DEFAULT_MAX_PERMS = 5040  # 7!: the library's default cap on the p! vertices


def check_perm_capacity(p: int, cap: int) -> None:
    """Raise :class:`CapacityError` when ``p!`` exceeds ``cap``.

    ``p`` is compared with the least m whose m! exceeds the cap, so no
    factorial larger than about ``cap * m`` is computed; the message spells
    out ``p!`` only while it is small (p <= 20).
    """
    m, m_factorial = 0, 1
    while m_factorial <= cap:
        m += 1
        m_factorial *= m
    if p >= m:
        count = f"{p}! = {math.factorial(p)}" if p <= 20 else f"{p}!"
        raise CapacityError(f"{count} permutations exceeds the cap of {cap}")


def coset_size(part: VertexPartition) -> int:
    """Order of the Young subgroup preserving every block of ``part``."""
    return math.prod(math.factorial(len(b)) for b in part.blocks)


def canonical_rep(part: VertexPartition, a: Perm) -> Perm:
    """Lexicographically least member of the right coset ``H·a`` of the Young
    subgroup ``H`` of ``part``.

    The coset consists exactly of the permutations sending each point ``y``
    into the block of ``a(y)``, so a greedy sweep that assigns the smallest
    unused member of that block is both a coset member and lex-least.
    """
    if len(a) != part.p:
        raise ValueError(f"size mismatch: permutation on {len(a)} points, partition of {part.p}")
    next_in_block = [0] * len(part.blocks)
    out = []
    for y in range(part.p):
        b = part.block_of[a[y]]
        out.append(part.blocks[b][next_in_block[b]])
        next_in_block[b] += 1
    return tuple(out)


def same_coset(part: VertexPartition, a: Perm, b: Perm) -> bool:
    """Whether ``a`` and ``b`` span the same right coset of the Young subgroup."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    block_of = part.block_of
    return all(block_of[a[y]] == block_of[b[y]] for y in range(len(a)))


@lru_cache(maxsize=4)
def perms_by_lex_rank(p: int) -> tuple[Perm, ...]:
    """All ``p!`` permutations, the one of lexicographic rank r at index r:
    one tuple per p, whose elements serve as every coset representative."""
    return tuple(itertools.permutations(range(p)))


def coset_reps(part: VertexPartition) -> tuple[Perm, ...]:
    """Canonical representatives of all right cosets of the Young subgroup,
    in lexicographic order.  There are ``p! / coset_size(part)`` of them.

    A permutation is canonical exactly when each block's members appear in
    it in increasing order: its first value v is the least member of its
    block, and the rest, values renumbered, is canonical for the partition
    without v.  This recursion runs on lex ranks, and the representatives
    are ``perms_by_lex_rank(p)`` at those ranks: no permutation is built.
    """
    table = perms_by_lex_rank(part.p)
    if len(part.blocks) == part.p:
        return table
    if len(part.blocks) == 1:
        return table[:1]
    return _by_first_value(table, part.block_of)


def _by_first_value(table: Sequence, block_of: tuple[int, ...]) -> tuple:
    """``table`` at the canonical lex ranks of the partition ``block_of``
    (blocks numbered by least member): for each least member v in turn, the
    run of ``table`` with first value v, at the ranks for the rest."""
    run = len(table) // len(block_of)
    reps, top = [], -1
    for v, b in enumerate(block_of):
        if b > top:  # v is the least member of block b
            top = b
            ids: dict[int, int] = {}  # the rest's blocks, renumbered by least member
            rest = tuple(ids.setdefault(c, len(ids)) for c in block_of[:v] + block_of[v + 1:])
            rows = table[v * run:(v + 1) * run]
            reps.extend(map(rows.__getitem__, _canonical_ranks(rest)))
    return tuple(reps)


@lru_cache(maxsize=256)
def _canonical_ranks(block_of: tuple[int, ...]) -> Sequence[int]:
    """The canonical lex ranks of the partition ``block_of``: :func:`coset_reps`
    below its first level.  Edge subsets meet the same few smaller partitions
    again and again; at most 256 are kept, of at most (p-1)!/2 ranks each."""
    ranks = range(math.factorial(len(block_of)))
    return ranks if len(set(block_of)) == len(block_of) else _by_first_value(ranks, block_of)
