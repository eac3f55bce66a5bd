"""Automorphism generator sets, checked against brute-force enumeration."""
import itertools
from math import gcd

import pytest

from kclass.autgroups import (
    aut_generators,
    aut_order,
    subgroup_closure,
    unit_group_generators,
    word_ball,
)
from kclass.groups import FgAbelianGroup, GroupHom
from kclass.matrix import IntMatrix
from kclass.sixterm import aut_plus_generators, stationary_cone
from oracles import (aut_brute, elements, sifted_order_bound, subgroup_closure_reference,
                     word_ball_reference)


def closure_of_units(gens, d):
    reached = {1}
    frontier = [1]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = (a * g) % d
                if b not in reached:
                    reached.add(b)
                    new.append(b)
        frontier = new
    return reached


@pytest.mark.parametrize("d", range(2, 31))
def test_unit_generators_generate(d):
    units = {u for u in range(1, d) if gcd(u, d) == 1}
    gens = unit_group_generators(d)
    assert closure_of_units(gens, d) == units


def test_unit_generators_trivial_cases():
    assert unit_group_generators(2) == []
    assert unit_group_generators(1) == []


@pytest.mark.parametrize("torsion", [
    (2,), (4,), (8,), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 2, 2), (6, 6), (3, 9),
])
def test_generators_match_brute_force(torsion):
    G = FgAbelianGroup(0, torsion)
    brute = set(aut_brute(G))
    gens = aut_generators(G)
    assert all(h in brute for h in gens)
    closed = subgroup_closure(G, gens, limit=10 ** 5)
    assert closed is not None
    assert set(closed) == brute


def test_generators_are_automorphisms_on_mixed_groups():
    for G in [FgAbelianGroup(2, (2, 4)), FgAbelianGroup(1, (3,)), FgAbelianGroup(3, ())]:
        for h in aut_generators(G):
            assert h.is_isomorphism()


def test_mixed_group_closure_sizes():
    # Aut(Z + Z/2) = {[[s,0],[c,1]]}: 4 elements; Aut(Z + Z/3): 2*3*2 = 12
    G = FgAbelianGroup(1, (2,))
    assert len(subgroup_closure(G, aut_generators(G), limit=1000)) == 4
    H = FgAbelianGroup(1, (3,))
    assert len(subgroup_closure(H, aut_generators(H), limit=1000)) == 12


def brute_gl2_mod(m):
    count = 0
    for a, b, c, d in itertools.product(range(m), repeat=4):
        if gcd(a * d - b * c, m) == 1:
            count += 1
    return count


@pytest.mark.parametrize("m", [2, 3])
def test_free_generators_surject_onto_gl2_mod_m(m):
    G = FgAbelianGroup(2, ())
    ball = word_ball(G, aut_generators(G), radius=8, limit=20000)
    images = set()
    for h in ball:
        mat = tuple(tuple(x % m for x in row) for row in h.matrix.to_lists())
        images.add(mat)
    assert len(images) == brute_gl2_mod(m)


def test_word_ball_is_deterministic_and_invertible():
    G = FgAbelianGroup(2, ())
    gens = aut_generators(G)
    b1 = word_ball(G, gens, radius=3, limit=5000)
    b2 = word_ball(G, gens, radius=3, limit=5000)
    assert b1 == b2
    assert b1[0] == GroupHom.identity(G)
    assert len(b1) > 20
    for h in b1[:40]:
        assert h.is_isomorphism()


def test_subgroup_closure_limit_returns_none():
    G = FgAbelianGroup(0, (6, 6))
    assert subgroup_closure(G, aut_generators(G), limit=10) is None


def test_trivial_group_aut():
    G = FgAbelianGroup(0, ())
    assert aut_brute(G) == [GroupHom.identity(G)]
    assert aut_generators(G) == []


def finite_abelian_groups(max_order: int, divisor: int = 1):
    """Every finite abelian group of order <= max_order whose invariant
    factors d_1 | d_2 | ... are multiples of ``divisor``, once each."""
    yield FgAbelianGroup(0, ())
    for d in range(max(divisor, 2), max_order + 1):
        if d % divisor == 0:
            for rest in finite_abelian_groups(max_order // d, d):
                yield FgAbelianGroup(0, (d,) + rest.torsion)


def test_aut_order_formula():
    # |GL(5, 2)|, Aut(Z/p^2) of order p(p - 1), and Aut(Z/2 + Z/4) = D4
    assert aut_order(FgAbelianGroup(0, (2,) * 5)) == 9999360
    assert aut_order(FgAbelianGroup(0, (9,))) == 6
    assert aut_order(FgAbelianGroup(0, (2, 4))) == 8
    assert aut_order(FgAbelianGroup(0, ())) == 1
    with pytest.raises(ValueError):
        aut_order(FgAbelianGroup(1, (2,)))


@pytest.mark.parametrize("G", list(finite_abelian_groups(64)), ids=str)
def test_aut_order_against_generated_group(G):
    # aut_generators must generate all of Aut(G): sixterm._iso_pool gives
    # up before listing a group whose aut_order exceeds its closure limit
    order = aut_order(G)
    gens = aut_generators(G)
    if G.order() ** G.ngens <= 1024:
        assert len(aut_brute(G)) == order
    if order <= 1536:
        assert len(subgroup_closure(G, gens)) == order
    # the generated group acts faithfully on the elements of G
    elems = list(elements(G))
    index = {x: i for i, x in enumerate(elems)}
    tables = [tuple(index[h(x)] for x in elems) for h in gens]
    assert all(sorted(t) == list(range(len(elems))) for t in tables)
    assert sifted_order_bound(tables, len(elems), order) == order


def generator_cases():
    """(group, generators): Aut generators of small groups, two of whose
    lists are empty, and the stabilizer of a stationary cone on Z^2."""
    for rank, torsion in [(0, ()), (0, (2,)), (1, ()), (2, ()), (1, (2,)), (0, (2, 4)),
                          (0, (2, 2, 2))]:
        G = FgAbelianGroup(rank, torsion)
        yield pytest.param(G, aut_generators(G), id=str(G))
    Z2 = FgAbelianGroup(2, ())
    yield pytest.param(Z2, aut_plus_generators(Z2, stationary_cone(IntMatrix([[2, 1], [1, 1]]))),
                       id="Z^2 stationary")


@pytest.mark.parametrize("G, gens", list(generator_cases()))
def test_products_keep_the_reference_order(G, gens):
    # element by element, order included; no generators give the identity
    for limit in (1, 7, 500):
        assert subgroup_closure(G, gens, limit) == subgroup_closure_reference(gens, limit, G)
        for radius in range(5):
            ball = word_ball(G, gens, radius, limit)
            assert ball == (word_ball_reference(gens, radius, limit) if gens
                            else [GroupHom.identity(G)])
