"""Generating sets for automorphism groups of f.g. abelian groups.

The generators follow the block structure of Aut(Z^r + T): a free block
GL(r, Z), a torsion block Aut(T) generated by diagonal units and
elementary transvections between torsion coordinates, and unipotent
mixed maps sending a free generator into the torsion part.
"""
from __future__ import annotations

from math import gcd
from typing import Sequence

from .matrix import identity_rows
from .groups import FgAbelianGroup, GroupHom

# The greedy closure lists every unit of Z/d, in time and memory linear in d.
MAX_UNIT_MODULUS = 10**6


def unit_group_generators(d: int) -> list[int]:
    """A small generating set for the unit group of Z/d (greedy closure).

    Raises ValueError past d = MAX_UNIT_MODULUS."""
    if d <= 2:
        return []
    if d > MAX_UNIT_MODULUS:
        raise ValueError(f"a cyclic group Z/d with d past MAX_UNIT_MODULUS={MAX_UNIT_MODULUS} "
                         "has too many units to list")
    units = [u for u in range(1, d) if gcd(u, d) == 1]
    gens: list[int] = []
    reached = {1}
    for u in units:
        if u in reached:
            continue
        gens.append(u)
        # close the subgroup generated so far
        frontier = list(reached)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = (a * g) % d
                    if b not in reached:
                        reached.add(b)
                        new.append(b)
            frontier = new
        if len(reached) == len(units):
            break
    return gens


def aut_generators(G: FgAbelianGroup) -> list[GroupHom]:
    """Automorphisms generating Aut(G).

    Free block: adjacent transpositions, one transvection, one sign flip.
    Torsion block: diagonal units of each Z/d_i, elementary transvections
    t_a -> t_a + c t_b with the minimal well-defined coefficient
    c = d_b / gcd(d_a, d_b), and swaps of equal-order coordinates.
    Mixed block: free generator -> itself + a torsion generator.
    Any automorphism factors through these blocks, so the list generates.
    """
    r = G.free_rank
    tor = G.torsion
    k = len(tor)
    gens: list[GroupHom] = []

    # each generator edits the images of the identity, whose rows are its columns
    for f in range(r - 1):
        cols = identity_rows(G.ngens)
        cols[f], cols[f + 1] = cols[f + 1], cols[f]
        gens.append(GroupHom.from_images(G, G, cols))
    if r >= 1:
        cols = identity_rows(G.ngens)
        cols[0] = [-c for c in cols[0]]
        gens.append(GroupHom.from_images(G, G, cols))
    if r >= 2:
        cols = identity_rows(G.ngens)
        cols[0][1] += 1
        gens.append(GroupHom.from_images(G, G, cols))

    for i, d in enumerate(tor):
        for u in unit_group_generators(d):
            cols = identity_rows(G.ngens)
            cols[r + i][r + i] = u
            gens.append(GroupHom.from_images(G, G, cols))

    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            lam = tor[b] // gcd(tor[a], tor[b])
            cols = identity_rows(G.ngens)
            cols[r + a][r + b] += lam
            gens.append(GroupHom.from_images(G, G, cols))

    for a in range(k - 1):
        if tor[a] == tor[a + 1]:
            cols = identity_rows(G.ngens)
            cols[r + a], cols[r + a + 1] = cols[r + a + 1], cols[r + a]
            gens.append(GroupHom.from_images(G, G, cols))

    for f in range(r):
        for i in range(k):
            cols = identity_rows(G.ngens)
            cols[f][r + i] += 1
            gens.append(GroupHom.from_images(G, G, cols))

    return gens


def aut_order(G: FgAbelianGroup) -> int:
    """|Aut(G)| of a finite abelian group, without listing it.

    Hillar and Rhea (Amer. Math. Monthly 114, 2007), per prime p: for
    the p-part Z/p^e_1 + ... + Z/p^e_n with e_1 <= ... <= e_n, and d_k
    (c_k) the largest (smallest) l with e_l = e_k,
    |Aut| = prod_k (p^d_k - p^(k-1)) p^(e_k (n - d_k)) p^((e_k - 1)(n - c_k + 1)).
    """
    if not G.is_finite():
        raise ValueError("aut_order needs a finite group")
    exponents: dict[int, list[int]] = {}
    for d in G.torsion:
        p = 2
        while d > 1:
            if p * p > d:
                p = d
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    order = 1
    for p, es in exponents.items():
        # a divisibility chain lists each prime's exponents in ascending order
        n = len(es)
        for k, e in enumerate(es, 1):
            d_k = n - es[::-1].index(e)
            c_k = es.index(e) + 1
            order *= (p**d_k - p**(k - 1)) * p**(e * (n - d_k)) * p**((e - 1) * (n - c_k + 1))
    return order


def _entries(h: GroupHom):
    return h.matrix.data


def _products(group: FgAbelianGroup, alphabet: Sequence[GroupHom], limit: int,
              radius: int | None = None) -> list[GroupHom]:
    """Distinct products of at most ``radius`` letters (any number when
    None), breadth first from the identity with each frontier sorted by
    matrix entries; the list stops growing once it holds ``limit``."""
    seen = {GroupHom.identity(group): None}  # a dict keeps insertion order
    frontier = list(seen)
    depth = 0
    while frontier and depth != radius:
        depth += 1
        new = []
        for h in frontier:
            for g in alphabet:
                c = g @ h
                if c not in seen:
                    seen[c] = None
                    if len(seen) >= limit:
                        return list(seen)
                    new.append(c)
        new.sort(key=_entries)
        frontier = new
    return list(seen)


def subgroup_closure(group: FgAbelianGroup, gens: Sequence[GroupHom],
                     limit: int = 10 ** 6) -> list[GroupHom] | None:
    """All products of the generators sorted by matrix entries, or None
    past ``limit`` elements.

    Intended for automorphisms of finite groups, where closing under
    composition automatically closes under inverse.
    """
    auts = _products(group, gens, limit + 1)
    return None if len(auts) > limit else sorted(auts, key=_entries)


def word_ball(group: FgAbelianGroup, gens: Sequence[GroupHom], radius: int,
              limit: int = 10 ** 6) -> list[GroupHom]:
    """Distinct products of at most ``radius`` automorphisms among the
    generators and their inverses.

    Deterministic order: breadth first, ties by matrix entries.  Useful
    for sampling infinite automorphism groups; truncated at ``limit``.
    """
    alphabet = list(dict.fromkeys(a for g in gens for a in (g, g.inverse())))
    return _products(group, alphabet, limit, radius)
