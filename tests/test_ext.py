"""Extension groups, classes of short exact sequences, and orbit decisions."""
import random
from math import gcd

import pytest
from oracles import ext_elements

import kclass.groups
import kclass.matrix
from kclass.autgroups import aut_generators
from kclass.ext import (
    ext1,
    extension_class,
    orbit_search,
    pull_element,
    push_element,
    realize_extension,
)
from kclass.groups import FgAbelianGroup, GroupHom, Presentation
from kclass.matrix import IntMatrix, identity_rows

Z = FgAbelianGroup(1, ())


def cyclic(m):
    return FgAbelianGroup(0, (m,))


def hom(dom, cod, rows):
    return GroupHom(dom, cod, IntMatrix(rows, cols=dom.ngens))


def test_ext_vanishes_for_free_source():
    for B in [Z, cyclic(4), FgAbelianGroup(2, (2, 6))]:
        assert ext1(FgAbelianGroup(3, ()), B).group.is_trivial()


def test_ext_mixed_example():
    # Ext(Z + Z/6, Z/4): the free part drops out, gcd(6, 4) = 2
    E = ext1(FgAbelianGroup(1, (6,)), cyclic(4))
    assert E.group == cyclic(2)


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("n", range(2, 13))
def test_ext_cyclic_table(m, n):
    E = ext1(cyclic(m), cyclic(n))
    g = gcd(m, n)
    assert E.group == (FgAbelianGroup(0, ()) if g == 1 else cyclic(g))


def test_ext_torsion_by_free():
    # Ext(Z/m, Z) = Z/m
    for m in [2, 3, 12]:
        assert ext1(cyclic(m), Z).group == cyclic(m)


def _random_chain(rng, length):
    orders, d = [], rng.randint(2, 6)
    for _ in range(length):
        orders.append(d)
        d *= rng.choice((1, 1, 2, 3, 5))
    return tuple(orders)


def test_ext_group_matches_the_smith_form_of_its_moduli(monkeypatch):
    rng = random.Random(25)
    for _ in range(300):
        A = FgAbelianGroup(rng.randint(0, 1), _random_chain(rng, rng.randint(0, 4)))
        B = FgAbelianGroup(rng.randint(0, 2), _random_chain(rng, rng.randint(0, 4)))
        moduli = ext1(A, B).moduli
        diag = [[m * x for x in row] for m, row in zip(moduli, identity_rows(len(moduli)))]
        assert ext1(A, B).group == Presentation(IntMatrix(diag, cols=len(moduli))).group

    # at the generator bound: 400 moduli, brought into canonical form by
    # gcd and lcm alone
    def refused(M):
        raise AssertionError("snf called")
    for module in (kclass.matrix, kclass.groups):
        monkeypatch.setattr(module, "snf", refused)
    A = FgAbelianGroup(0, (2,) * 10 + (6,) * 10)
    B = FgAbelianGroup(10, (3,) * 10)
    assert ext1(A, B).group == FgAbelianGroup(0, (6,) * 200)


@pytest.mark.parametrize("m", range(2, 8))
def test_class_sign_convention(m):
    # 0 -> Z --m--> Z -> Z/m -> 0 must have class +1
    incl = hom(Z, Z, [[m]])
    proj = hom(Z, cyclic(m), [[1]])
    x = extension_class(incl, proj)
    assert x.coords == (1,)


def test_class_of_twisted_projection():
    # same middle group, projection x -> 2x mod 3: class is 2
    incl = hom(Z, Z, [[3]])
    proj = hom(Z, cyclic(3), [[2]])
    assert extension_class(incl, proj).coords == (2,)


def test_split_sequence_has_zero_class():
    G = FgAbelianGroup(1, (3,))
    incl = hom(Z, G, [[1], [0]])
    proj = hom(G, cyclic(3), [[0, 1]])
    assert extension_class(incl, proj) == ext1(cyclic(3), Z).zero()


def test_extension_class_refuses_a_scaled_lift_outside_the_inclusion():
    # extension_class does not prove exactness; on this sequence, whose
    # kernel 3Z strictly contains the image 6Z, the lift 1 of the
    # generator of Z/3 scales to 3, which the inclusion does not reach
    incl = hom(Z, Z, [[6]])
    proj = hom(Z, cyclic(3), [[1]])
    with pytest.raises(ValueError, match="scaled lift is not in the image of the inclusion"):
        extension_class(incl, proj)


SMALL_GROUPS = [
    FgAbelianGroup(0, (2,)),
    FgAbelianGroup(0, (4,)),
    FgAbelianGroup(0, (2, 4)),
    FgAbelianGroup(1, ()),
    FgAbelianGroup(1, (3,)),
    FgAbelianGroup(0, (6,)),
]


def test_realize_then_classify_round_trip():
    for A in SMALL_GROUPS:
        for B in SMALL_GROUPS:
            E = ext1(A, B)
            seen = 0
            for x in ext_elements(E):
                G, incl, proj = realize_extension(x)
                assert extension_class(incl, proj) == x
                if A.is_finite() and B.is_finite():
                    assert G.order() == A.order() * B.order()
                seen += 1
                if seen >= 8:
                    break


def test_push_pull_scale_linearly():
    m = 6
    E = ext1(cyclic(m), Z)
    x = E.element((1,))
    for t in range(-3, 4):
        pushed = push_element(hom(Z, Z, [[t]]), x)
        assert pushed.coords == (t % m,)
    for t in range(4):
        alpha = hom(cyclic(m), cyclic(m), [[t]])
        pulled = pull_element(alpha, x)
        assert pulled.coords == (t % m,)


def test_pull_through_projection_between_different_cyclics():
    # alpha: Z/2 -> Z/4 doubling; chain coefficient 2*2/4 = 1
    alpha = hom(cyclic(2), cyclic(4), [[2]])
    E = ext1(cyclic(4), Z)
    x = E.element((3,))
    y = pull_element(alpha, x)
    assert y.group == ext1(cyclic(2), Z)
    assert y.coords == (3 % 2,)


def test_induced_hom_functoriality():
    A = cyclic(4)
    B = FgAbelianGroup(0, (2, 4))
    E = ext1(A, B)
    b1 = hom(B, B, [[1, 0], [2, 1]])
    b2 = hom(B, B, [[1, 1], [0, 3]])
    a1 = hom(cyclic(2), cyclic(4), [[2]])
    a2 = hom(cyclic(4), cyclic(4), [[3]])
    for x in ext_elements(E):
        assert push_element(GroupHom.identity(B), x) == x
        assert pull_element(GroupHom.identity(A), x) == x
        assert push_element(b2 @ b1, x) == push_element(b2, push_element(b1, x))
        assert pull_element(a2 @ a1, x) == pull_element(a1, pull_element(a2, x))


def test_push_and_pull_commute():
    rng = random.Random(7)
    A2, A1 = cyclic(4), cyclic(8)
    B1, B2 = FgAbelianGroup(0, (2, 4)), cyclic(6)
    alpha = hom(A2, A1, [[2]])
    beta = hom(B1, B2, [[3, 0]])
    E = ext1(A1, B1)
    for _ in range(20):
        x = E.element(tuple(rng.randrange(8) for _ in E.moduli))
        one = push_element(beta, pull_element(alpha, x))
        two = pull_element(alpha, push_element(beta, x))
        assert one == two


def apply_moves(x, word, autA, autB):
    """Apply an orbit_search word to x, first move first."""
    for kind, idx in word:
        x = pull_element(autA[idx], x) if kind == "pull" else push_element(autB[idx], x)
    return x


def test_orbit_decide_twisted_classes_equivalent():
    E = ext1(cyclic(3), Z)
    autA = aut_generators(cyclic(3))
    autB = aut_generators(Z)
    x1, x2 = E.element((1,)), E.element((2,))
    found, word = orbit_search(E, x1, x2, autA, autB)
    assert found is True and word
    assert apply_moves(x1, word, autA, autB) == x2

    A, B = FgAbelianGroup(0, (2, 4)), FgAbelianGroup(1, (4,))
    E = ext1(A, B)
    autA, autB = aut_generators(A), aut_generators(B)
    x1 = E.element((1, 0, 1, 2))
    kinds = set()
    for x2 in ext_elements(E):
        found, word = orbit_search(E, x1, x2, autA, autB)
        if found:
            assert apply_moves(x1, word, autA, autB) == x2
            kinds |= {kind for kind, _ in word}
    assert kinds == {"pull", "push"}


def test_orbit_decide_nonzero_vs_zero():
    E = ext1(cyclic(3), Z)
    autA = aut_generators(cyclic(3))
    autB = aut_generators(Z)
    assert orbit_search(E, E.element((1,)), E.zero(), autA, autB) == (False, None)


def test_orbit_limit_gives_none():
    E = ext1(cyclic(7), Z)
    autA = aut_generators(cyclic(7))
    assert orbit_search(E, E.element((1,)), E.element((5,)), autA, [],
                        limit=1) == (None, None)


def test_orbit_rejects_bad_generators():
    E = ext1(cyclic(3), Z)
    squash = hom(cyclic(3), cyclic(3), [[0]])
    with pytest.raises(ValueError):
        orbit_search(E, E.zero(), E.zero(), [squash], [])
    with pytest.raises(ValueError):
        orbit_search(E, E.zero(), E.zero(), [], [hom(Z, Z, [[2]])])
