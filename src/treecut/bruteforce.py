"""Exhaustive small-n oracles for the destruction process.

Trees are nested tuples: a node is the tuple of its subtrees, so ()
is a single vertex and ((), ()) is a root with two leaf children.
Everything here enumerates *all* weighted ordered trees of a size and
*all* cut outcomes exactly (Fractions), with no reference to the
splitting-probability formula or the moment recurrences, so it serves
as an independent ground truth for both.

Cost semantics match :mod:`treecut.moments`: cutting an edge in a
component of m >= 2 vertices costs t_m; a size-1 component costs the
toll's size-1 value (1 by default, 0 under the edges-only convention).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from .family import FamilySpec, phi_coefficient
from .moments import ONE_SIDED, TWO_SIDED, TollSpec

Tree = Tuple  # nested tuples of subtrees


def enumerate_trees(n: int) -> Tuple[Tree, ...]:
    """All ordered trees with n vertices (Catalan(n-1) of them): a root over each forest of n - 1."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    return _forests(n - 1)


@lru_cache(maxsize=None)
def _forests(n: int) -> Tuple[Tuple[Tree, ...], ...]:
    """All ordered forests with n vertices total."""
    if n == 0:
        return ((),)
    out: List[Tuple[Tree, ...]] = []
    for i in range(1, n + 1):
        for first in enumerate_trees(i):
            for rest in _forests(n - i):
                out.append((first,) + rest)
    return tuple(out)


def tree_size(tree: Tree) -> int:
    return 1 + sum(tree_size(sub) for sub in tree)


def tree_weight(spec: FamilySpec, tree: Tree) -> Fraction:
    """Product of degree weights phi_{outdegree(v)} over all vertices."""
    w = phi_coefficient(spec, len(tree))
    for sub in tree:
        w *= tree_weight(spec, sub)
    return w


def all_cuts(tree: Tree) -> Iterator[Tuple[Tree, Tree]]:
    """(root side, cut-off side) for every one of the n-1 edges."""
    for i, sub in enumerate(tree):
        yield tree[:i] + tree[i + 1 :], sub
        for kept, removed in all_cuts(sub):
            yield tree[:i] + (kept,) + tree[i + 1 :], removed


def tree_moments(tree: Tree, toll: TollSpec, s_max: int, variant: str) -> List[Fraction]:
    """E[cost^s] of destroying this fixed tree, s = 0..s_max.

    After a cut the two components evolve independently, so the moments
    of the sum expand multinomially from the component moments.  The
    one-sided process discards the cut-off side, whose cost is then the
    constant 0, with moments (1, 0, ..., 0).
    """
    if variant not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown variant {variant!r}")
    discarded = [Fraction(1)] + [Fraction(0)] * s_max
    memo: Dict[Tree, List[Fraction]] = {}

    def rec(t: Tree) -> List[Fraction]:
        if t in memo:
            return memo[t]
        n = tree_size(t)
        if n == 1:
            t1 = Fraction(toll.t1)
            result = [t1**s for s in range(s_max + 1)]
        else:
            tn = toll.exact_value(n)
            sums = [Fraction(0)] * (s_max + 1)
            for kept, removed in all_cuts(t):
                a = rec(kept)
                b = discarded if variant == ONE_SIDED else rec(removed)
                for s in range(s_max + 1):
                    sums[s] += sum(
                        math.comb(s, j) * a[j] * b[s - j] for j in range(s + 1)
                    )
            result = []
            for s in range(s_max + 1):
                acc = Fraction(0)
                for j in range(s + 1):
                    acc += math.comb(s, j) * tn ** (s - j) * sums[j]
                result.append(acc / (n - 1))
        memo[t] = result
        return result

    return rec(tree)


def family_moments(
    spec: FamilySpec, n: int, toll: TollSpec, s_max: int, variant: str
) -> List[Fraction]:
    """Exact E[cost^s] over a random size-n tree of the family, s = 0..s_max."""
    total_weight = Fraction(0)
    sums = [Fraction(0)] * (s_max + 1)
    for tree in enumerate_trees(n):
        w = tree_weight(spec, tree)
        if w == 0:
            continue
        values = tree_moments(tree, toll, s_max, variant)
        total_weight += w
        for s in range(s_max + 1):
            sums[s] += w * values[s]
    return [v / total_weight for v in sums]

