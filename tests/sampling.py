"""Seeded random generators for graphs, groups, and invariants.

Everything takes an explicit random.Random so test corpora are
reproducible.  The invariant generator mixes construction routes on
purpose: extensions with a vanishing K1 row, pairs of extensions glued
by zero connecting maps, cyclic hexagons with unit twists, and
invariants computed from random one-ideal graphs.
"""
from __future__ import annotations

import math
import random

from kclass.matrix import IntMatrix
from kclass.groups import FgAbelianGroup, GroupHom
from kclass.ext import ext1, realize_extension
from kclass.graphalg import DirectedGraph, one_ideal_invariant, one_ideal_parts
from kclass.sixterm import (SixTermInvariant, all_positive_cone, standard_free_cone,
                      unordered_cone, NODES, MAP_KEYS)


def random_matrix(rng: random.Random, rows: int, cols: int,
                  lo: int = -9, hi: int = 9) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


_TORSION_CHOICES = [(), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3),
                    (2, 6), (8,), (9,), (12,), (2, 8), (3, 6), (2, 12), (4, 4),
                    (5, 5), (2, 16), (6, 6), (36,)]


def random_group(rng: random.Random, max_rank: int = 2) -> FgAbelianGroup:
    return FgAbelianGroup(rng.randint(0, max_rank),
                          rng.choice(_TORSION_CHOICES))


def random_finite_group(rng: random.Random) -> FgAbelianGroup:
    return FgAbelianGroup(0, rng.choice(_TORSION_CHOICES))


def random_one_ideal_graph(rng: random.Random, max_vertices: int = 6,
                           max_mult: int = 3, attempts: int = 4000) -> DirectedGraph:
    """A graph with exactly one nontrivial hereditary saturated set whose
    ideal and quotient both classify, found by rejection sampling."""
    for _ in range(attempts):
        nb = rng.randint(1, max_vertices - 1)
        na = rng.randint(1, max_vertices - nb)
        n = nb + na
        adj = [[0] * n for _ in range(n)]
        # ideal block occupies the first nb vertices; no edges leave it
        for i in range(nb):
            for j in range(nb):
                if rng.random() < 0.5:
                    adj[i][j] = rng.randint(1, max_mult)
        for i in range(nb, n):
            for j in range(n):
                if rng.random() < 0.45:
                    adj[i][j] = rng.randint(1, max_mult)
        g = DirectedGraph([f"v{i}" for i in range(n)], IntMatrix(adj))
        try:
            one_ideal_parts(g)
        except ValueError:
            continue
        return g
    raise RuntimeError("no admissible graph found within the attempt budget")


def _random_cone(rng: random.Random, G: FgAbelianGroup):
    choices = [all_positive_cone(), unordered_cone()]
    if not G.torsion:
        choices.append(standard_free_cone())
    return rng.choice(choices)


def _random_extension(rng: random.Random, small: bool = False):
    """A short exact sequence 0 -> B -> G -> A -> 0 with its maps."""
    opts = [(), (2,), (3,), (4,), (6,)]
    while True:
        A = FgAbelianGroup(rng.randint(0, 1), rng.choice(opts))
        B = FgAbelianGroup(rng.randint(0, 1), rng.choice(opts))
        if small and (A.free_rank + B.free_rank > 1):
            continue
        if A.ngens + B.ngens == 0:
            continue
        break
    E = ext1(A, B)
    raw = [rng.randrange(24) for _ in range(E.nblocks * E.block_size)]
    x = E.element(raw) if raw else E.zero()
    G, incl, proj = realize_extension(x)
    return A, B, G, incl, proj


def _k0_row_invariant(incl: GroupHom, proj: GroupHom, cone_b, cone_a) -> SixTermInvariant:
    """The invariant of a short exact K0 row under a trivial K1 row."""
    B, G, A = incl.domain, incl.codomain, proj.codomain
    T = FgAbelianGroup(0, ())
    groups = {"K0B": B, "K0E": G, "K0A": A, "K1A": T, "K1E": T, "K1B": T}
    maps = {"K0B->K0E": incl, "K0E->K0A": proj,
            "K0A->K1B": GroupHom.zero(A, T), "K1B->K1E": GroupHom.zero(T, T),
            "K1E->K1A": GroupHom.zero(T, T), "K1A->K0B": GroupHom.zero(T, B)}
    cones = {"K0B": cone_b, "K0E": unordered_cone(), "K0A": cone_a}
    return SixTermInvariant(groups, maps, cones)


def _vanishing_k1_invariant(rng: random.Random) -> SixTermInvariant:
    A, B, G, incl, proj = _random_extension(rng)
    cone_b = _random_cone(rng, B)
    return _k0_row_invariant(incl, proj, cone_b, _random_cone(rng, A))


def ext_orbit_pairs(seed: int, count: int) -> list[tuple]:
    """Pairs (first, second, x, y) of extensions 0 -> Z^k -> E -> Z/d -> 0
    of classes x and y, each as an invariant with a trivial K1 row, an
    unordered cone on Z/d and the standard cone on Z^k, for d in 5..13
    odd and k in {2, 3}.  Half the second classes come from the orbit of
    the first under a unit of Z/d and a permutation of Z^k.  Of ``count``
    draws, those whose middle groups differ are skipped, so no stage
    before the Ext-orbit one separates a pair."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        d, k = rng.choice((5, 7, 9, 11, 13)), rng.choice((2, 3))
        E = ext1(FgAbelianGroup(0, (d,)), FgAbelianGroup(k))
        x = [rng.randrange(d) for _ in range(k)]
        if rng.random() < 0.5:
            u = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1])
            y = [u * c % d for c in rng.sample(x, k)]
        else:
            y = [rng.randrange(d) for _ in range(k)]
        x, y = E.element(x), E.element(y)
        first, second = (_k0_row_invariant(*realize_extension(c)[1:], standard_free_cone(),
                                           unordered_cone()) for c in (x, y))
        if first.groups["K0E"] == second.groups["K0E"]:
            pairs.append((first, second, x, y))
    return pairs


def _glued_pair_invariant(rng: random.Random) -> SixTermInvariant:
    # two short exact rows with zero connecting maps
    A0, B0, G0, incl0, proj0 = _random_extension(rng)
    A1, B1, G1, incl1, proj1 = _random_extension(rng, small=True)
    groups = {"K0B": B0, "K0E": G0, "K0A": A0,
              "K1B": B1, "K1E": G1, "K1A": A1}
    maps = {"K0B->K0E": incl0, "K0E->K0A": proj0, "K0A->K1B": GroupHom.zero(A0, B1),
            "K1B->K1E": incl1, "K1E->K1A": proj1, "K1A->K0B": GroupHom.zero(A1, B0)}
    cones = {"K0B": _random_cone(rng, B0), "K0E": unordered_cone(),
             "K0A": _random_cone(rng, A0)}
    return SixTermInvariant(groups, maps, cones)


def _unit_cycle_invariant(rng: random.Random) -> SixTermInvariant:
    # all groups Z/p^2, every map p times a unit: exact all around
    p = rng.choice((2, 3))
    G = FgAbelianGroup(0, (p * p,))
    units = [u for u in range(1, p * p) if u % p != 0]
    groups = {n: G for n in NODES}
    maps = {k: GroupHom(G, G, IntMatrix([[p * rng.choice(units) % (p * p)]]))
            for k in MAP_KEYS}
    cones = {"K0B": _random_cone(rng, G), "K0E": unordered_cone(),
             "K0A": _random_cone(rng, G)}
    return SixTermInvariant(groups, maps, cones)


def random_valid_invariant(rng: random.Random) -> SixTermInvariant:
    route = rng.random()
    if route < 0.35:
        return _vanishing_k1_invariant(rng)
    if route < 0.65:
        return _glued_pair_invariant(rng)
    if route < 0.8:
        return _unit_cycle_invariant(rng)
    return one_ideal_invariant(random_one_ideal_graph(rng))


def invariant_corpus(seed: int, count: int) -> list[SixTermInvariant]:
    rng = random.Random(seed)
    return [random_valid_invariant(rng) for _ in range(count)]
