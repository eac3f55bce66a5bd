import random
from collections import Counter
from dataclasses import FrozenInstanceError
from math import gcd

import pytest

from oracles import (elements, homs_bruteforce, inverse_by_hom_equations,
                     is_exact_pair_bruteforce, is_exact_pair_by_invariant_factors)
from sampling import random_group

from kclass.autgroups import aut_generators
from kclass.matrix import IntMatrix, identity_rows
from kclass.groups import (
    FgAbelianGroup,
    GroupHom,
    Presentation,
    cokernel,
    is_exact_pair,
    kernel,
    relation_matrix,
    solve_hom_equations,
)

Z = FgAbelianGroup(1)
TRIVIAL = FgAbelianGroup(0)


def Zmod(*ds):
    return FgAbelianGroup(0, tuple(ds))


def presented(M):
    return Presentation(M).group


def random_unimodular(n, rng):
    M = IntMatrix.identity(n).to_lists()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for c in range(n):
                M[i][c] += q * M[j][c]
    return IntMatrix(M, cols=n)


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    g = FgAbelianGroup(2, (2, 6))
    assert g.ngens == 4
    assert g.gen_orders == (0, 0, 2, 6)
    assert str(g) == "Z^2 x Z/2 x Z/6"
    assert str(TRIVIAL) == "0"


def test_rank_and_torsion_are_exact_integers():
    # 92.5 is refused rather than read as 92, as matrix entries are
    for rank, torsion in ((0, (92.5,)), (0, ("4",)), (0, (True,)), (1.0, ()), (True, ())):
        with pytest.raises(TypeError, match="rank and torsion must be integers"):
            FgAbelianGroup(rank, torsion)
    assert FgAbelianGroup(1, [2, 4]).torsion == (2, 4)


def test_group_from_matrix_worked_example():
    assert presented(IntMatrix([[1, 0], [1, 2]])) == Zmod(2)


def test_group_from_matrix_more():
    assert presented(IntMatrix.zeros(2, 0)) == FgAbelianGroup(2)
    assert presented(IntMatrix([[2, 0], [0, 3]])) == Zmod(6)
    assert presented(IntMatrix([[2, 0], [0, 2]])) == Zmod(2, 2)
    assert presented(IntMatrix.identity(3)) == TRIVIAL


def test_canonical_form_invariant_under_unimodular_change():
    rng = random.Random(4242)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(0, 4)
        M = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        P = random_unimodular(m, rng)
        Q = random_unimodular(n, rng) if n else IntMatrix.identity(0)
        assert presented(M) == presented(P @ M @ Q)


def test_presentation_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(0, 4)
        rel = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        G, q = cokernel(GroupHom(FgAbelianGroup(n), FgAbelianGroup(m), rel))
        # the quotient is onto: each generator has a preimage it maps back to
        assert q.is_surjective()
        for e in identity_rows(G.ngens):
            assert q(q.preimage(e)) == tuple(e)
        # relations map to zero
        for j in range(rel.cols):
            assert q(rel.column(j)) == G.zero()


def test_hom_validation_and_reduction():
    f = GroupHom(Zmod(2), Zmod(4), IntMatrix([[2]]))
    assert f.matrix[0, 0] == 2
    with pytest.raises(ValueError):
        GroupHom(Zmod(2), Zmod(4), IntMatrix([[1]]))  # 2*1 != 0 mod 4
    with pytest.raises(ValueError):
        GroupHom(Zmod(2), Z, IntMatrix([[1]]))  # torsion cannot map to free
    g = GroupHom(Zmod(3), Zmod(3), IntMatrix([[5]]))
    assert g.matrix[0, 0] == 2  # stored reduced


def test_hom_from_images_sends_each_generator_to_its_image():
    G = FgAbelianGroup(1, (2,))
    f = GroupHom.from_images(G, Zmod(4), [[3], [2]])
    assert f == GroupHom(G, Zmod(4), IntMatrix([[3, 2]]))
    assert f((1, 0)) == (3,) and f((0, 1)) == (2,)
    # a trivial domain has no images; the codomain fixes the shape
    assert GroupHom.from_images(TRIVIAL, G, []) == GroupHom.zero(TRIVIAL, G)
    with pytest.raises(ValueError):
        GroupHom.from_images(Zmod(2), Zmod(4), [[1]])  # 2*1 != 0 mod 4


def test_kernel_worked_example():
    f = GroupHom(FgAbelianGroup(2), FgAbelianGroup(2), IntMatrix([[0, 1], [1, -1]]))
    K, incl = kernel(f)
    assert K == TRIVIAL
    assert incl.domain == TRIVIAL and incl.codomain == FgAbelianGroup(2)


def test_kernel_of_mod_map():
    f = GroupHom(Z, Zmod(3), IntMatrix([[1]]))
    K, incl = kernel(f)
    assert K == Z
    assert incl.matrix.to_lists() in ([[3]], [[-3]])


def test_kernel_with_torsion():
    # doubling on Z/4 has kernel Z/2 generated by 2
    f = GroupHom(Zmod(4), Zmod(4), IntMatrix([[2]]))
    K, incl = kernel(f)
    assert K == Zmod(2)
    assert incl(np_one := (1,)) == (2,)
    # inclusion must be injective
    img = {incl(x) for x in elements(K)}
    assert len(img) == K.order()


def test_cokernel_worked_example():
    f = GroupHom(FgAbelianGroup(2), FgAbelianGroup(2), IntMatrix([[1, 0], [1, 2]]))
    C, proj = cokernel(f)
    assert C == Zmod(2)
    assert proj.is_surjective()


def test_cokernel_projection_kills_image():
    rng = random.Random(5)
    for _ in range(25):
        dom = FgAbelianGroup(rng.randint(0, 2), tuple(sorted(rng.sample([2, 4, 8], rng.randint(0, 1)))))
        cod = FgAbelianGroup(rng.randint(0, 2))
        mat = IntMatrix([[rng.randint(-4, 4) for _ in range(dom.ngens)] for _ in range(cod.ngens)],
                        cols=dom.ngens)
        try:
            f = GroupHom(dom, cod, mat)
        except ValueError:
            continue
        C, proj = cokernel(f)
        assert (proj @ f).is_zero()
        assert proj.is_surjective()


def test_exact_pair_worked_example():
    times3 = GroupHom(Z, Z, IntMatrix([[3]]))
    mod3 = GroupHom(Z, Zmod(3), IntMatrix([[1]]))
    assert is_exact_pair(times3, mod3)
    times6 = GroupHom(Z, Z, IntMatrix([[6]]))
    assert not is_exact_pair(times6, mod3)
    mod6 = GroupHom(Z, Zmod(6), IntMatrix([[1]]))
    assert not is_exact_pair(times3, mod6)


def test_kernel_cokernel_exactness_property():
    # 0 -> ker -> G -> im ... the inclusion and the map form an exact pair
    rng = random.Random(77)
    groups = [Z, FgAbelianGroup(2), Zmod(4), Zmod(2, 4), FgAbelianGroup(1, (3,))]
    for _ in range(40):
        dom = rng.choice(groups)
        cod = rng.choice(groups)
        cols = []
        for o in dom.gen_orders:
            col = []
            for d in cod.gen_orders:
                if o == 0:
                    col.append(rng.randint(-3, 3))
                elif d == 0:
                    col.append(0)
                else:
                    step = d // __import__("math").gcd(d, o)
                    col.append(step * rng.randrange(max(1, d // step)))
            cols.append(col)
        f = GroupHom(dom, cod, IntMatrix.from_columns(cols, rows=cod.ngens))
        K, incl = kernel(f)
        assert (f @ incl).is_zero()
        assert is_exact_pair(incl, f)
        C, proj = cokernel(f)
        assert is_exact_pair(f, proj)


def test_inverse_matches_hom_equation_oracle():
    f = GroupHom(Zmod(5), Zmod(5), IntMatrix([[2]]))
    inv = f.inverse()
    assert inv.matrix[0, 0] == 3
    g = GroupHom(FgAbelianGroup(2), FgAbelianGroup(2), IntMatrix([[2, 1], [1, 1]]))
    ginv = g.inverse()
    assert (g @ ginv).matrix == IntMatrix.identity(2)
    h = GroupHom(Z, Z, IntMatrix([[2]]))
    with pytest.raises(ValueError):
        h.inverse()
    # seeded automorphisms of groups of free rank at most 2 with torsion,
    # and random maps, which the oracle refuses exactly when inverse does
    rng = random.Random(2323)
    seen = Counter()
    for _ in range(300):
        G = random_group(rng)
        h = (random_automorphism(rng, G) if rng.random() < 0.6
             else random_hom(rng, G, rng.choice([G, random_group(rng)])))
        try:
            expected = inverse_by_hom_equations(h).matrix
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(ValueError, match="not invertible"):
                h.inverse()
        else:
            assert h.inverse().matrix == expected
        seen[expected is not None, G.is_finite()] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_preimage_matches_element_enumeration():
    # vec is drawn with unreduced torsion coordinates, so that "modulo
    # the codomain relations" is exercised too; half the draws are
    # images by construction
    rng = random.Random(2324)
    seen = Counter()
    for _ in range(400):
        dom, cod = rng.choice(FINITE), rng.choice(FINITE)  # of order at most 64
        f = random_hom(rng, dom, cod)
        image = {f(x) for x in elements(dom)}
        if rng.random() < 0.5:
            y = f([rng.randrange(d) for d in dom.torsion])
            vec = [c + d * rng.randint(-2, 2) for c, d in zip(y, cod.torsion)]
        else:
            vec = [rng.randint(-9, 9) for _ in range(cod.ngens)]
        x = f.preimage(vec)
        assert (x is None) == (cod.reduce(vec) not in image)
        if x is not None:
            assert len(x) == dom.ngens and f(x) == cod.reduce(vec)
        seen[x is None] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_solve_hom_equations_no_solution():
    # no H with H * (x2 on Z) == identity
    f = GroupHom(Z, Z, IntMatrix([[2]]))
    assert solve_hom_equations(Z, Z, [(None, f, IntMatrix.identity(1))]) is None


def test_solve_hom_equations_against_bruteforce():
    # every H: D -> C is listed, so a system has a solution exactly when
    # the enumeration finds one; this pins the row and column order of
    # the equations P H Q = T as rows of P (x) Q^T
    finite = [FgAbelianGroup(0, t) for t in [(), (2,), (3,), (4,), (2, 2), (2, 4), (6,)]]
    rng = random.Random(18)
    homs = {}

    def all_homs(G, H):
        if (G, H) not in homs:
            homs[G, H] = homs_bruteforce(G, H)
        return homs[G, H]

    def holds(H, eq):
        P, Q, T = eq
        lhs = ((P or GroupHom.identity(H.codomain)) @ H
               @ (Q or GroupHom.identity(H.domain)))
        return lhs == GroupHom(lhs.domain, lhs.codomain, T)

    seen = Counter()
    for _ in range(400):
        D, C = rng.choice(finite), rng.choice(finite)
        if C.order() ** D.ngens > 64:
            continue
        equations = []
        for _ in range(rng.choice((1, 2))):
            P = rng.choice([None, rng.choice(all_homs(C, rng.choice(finite)))])
            Q = rng.choice([None, rng.choice(all_homs(rng.choice(finite), D))])
            X = P.codomain if P else C
            Y = Q.domain if Q else D
            if rng.random() < 0.5:  # solvable by construction
                H0 = rng.choice(all_homs(D, C))
                T = (P or GroupHom.identity(C)) @ H0 @ (Q or GroupHom.identity(D))
            else:
                T = rng.choice(all_homs(Y, X))
            equations.append((P, Q, T.matrix))
            seen["P None"] += P is None
            seen["Q None"] += Q is None
        H = solve_hom_equations(D, C, equations)
        solvable = any(all(holds(h, eq) for eq in equations) for h in all_homs(D, C))
        assert (H is not None) == solvable
        if H is not None:
            assert (H.domain, H.codomain) == (D, C)
            assert all(holds(H, eq) for eq in equations)
        seen["two equations"] += len(equations) == 2
        seen["trivial group"] += D.is_trivial() or C.is_trivial()
        seen["solved" if solvable else "no solution"] += 1
    assert min(seen.values()) >= 20, seen


def test_relation_matrix():
    R = relation_matrix(FgAbelianGroup(1, (2, 4)))
    assert R.to_lists() == [[0, 0], [2, 0], [0, 4]]


def test_is_isomorphism_matches_kernel_and_cokernel():
    rng = random.Random(23)
    groups = [TRIVIAL, Z, FgAbelianGroup(2), Zmod(2), Zmod(4), Zmod(6),
              Zmod(2, 4), FgAbelianGroup(1, (3,))]
    seen = set()
    for _ in range(600):
        dom, cod = rng.choice(groups), rng.choice(groups)
        rows = [[rng.randint(-3, 3) for _ in range(dom.ngens)]
                for _ in range(cod.ngens)]
        try:
            h = GroupHom(dom, cod, IntMatrix(rows, cols=dom.ngens))
        except ValueError:
            continue
        expected = kernel(h)[0].is_trivial() and cokernel(h)[0].is_trivial()
        assert h.is_isomorphism() == expected
        seen.add((dom == cod, expected))
    assert seen == {(True, True), (True, False), (False, False)}


FINITE = [TRIVIAL, Zmod(2), Zmod(3), Zmod(4), Zmod(5), Zmod(6), Zmod(8), Zmod(12),
          Zmod(2, 2), Zmod(2, 4), Zmod(3, 3), Zmod(2, 6), Zmod(4, 4), Zmod(2, 8),
          Zmod(3, 9), Zmod(2, 2, 2), Zmod(2, 2, 4), Zmod(4, 8), Zmod(2, 4, 8)]


def random_hom(rng, dom, cod):
    """A random homomorphism: a generator of order o (0 if free) goes
    against a generator of order d to a multiple of d / gcd(d, o), and
    against a free generator to 0, or anywhere if it is free itself."""
    cols = [[d // gcd(d, o) * rng.randrange(gcd(d, o)) if d else
             rng.randint(-3, 3) if o == 0 else 0
             for d in cod.gen_orders] for o in dom.gen_orders]
    return GroupHom(dom, cod, IntMatrix.from_columns(cols, rows=cod.ngens))


def test_exactness_and_kernel_match_bruteforce_oracle():
    # pairs are random, or g kills image(f) by factoring through the
    # cokernel of f, or f maps into the kernel of g
    rng = random.Random(505)
    seen = {(True, True): 0, (False, True): 0, (False, False): 0}
    for _ in range(600):
        A, H = rng.choice(FINITE), rng.choice(FINITE)
        route = rng.randrange(3)
        if route == 0:
            f = random_hom(rng, A, H)
            g = random_hom(rng, H, rng.choice(FINITE))
        elif route == 1:
            f = random_hom(rng, A, H)
            C, proj = cokernel(f)
            g = random_hom(rng, C, rng.choice([C, *FINITE])) @ proj
        else:
            g = random_hom(rng, H, rng.choice(FINITE))
            K, incl = kernel(g)
            f = incl @ random_hom(rng, rng.choice([K, *FINITE]), K)
        exact = is_exact_pair_bruteforce(f, g)
        assert is_exact_pair(f, g) == exact
        seen[exact, (g @ f).is_zero()] += 1
        for h in (f, g):
            K, incl = kernel(h)
            killed = {x for x in elements(h.domain) if h(x) == h.codomain.zero()}
            image = {incl(x) for x in elements(K)}
            assert len(image) == K.order() == len(killed)
            assert image == killed
    assert seen[True, True] >= 100
    assert seen[False, True] + seen[False, False] >= 100
    assert min(seen.values()) >= 50


def random_automorphism(rng, G):
    phi = GroupHom.identity(G)
    gens = aut_generators(G)
    for _ in range(rng.randint(0, 3) if gens else 0):
        phi = rng.choice(gens) @ phi
    return phi


def test_exactness_matches_invariant_factor_oracle_on_infinite_groups():
    # groups of free rank at most 2 with torsion, so that membership in
    # the image lattice is decided on free coordinates too; pairs with
    # g f = 0 come from a cokernel projection after a random map or a
    # kernel inclusion before one, which is exact only when that map is
    # injective, respectively onto (so m * incl is exact only when m is
    # invertible on the kernel)
    rng = random.Random(1919)
    seen = Counter()
    for _ in range(480):
        A, H = random_group(rng), random_group(rng)
        route = rng.randrange(5)
        if route == 0:
            f = random_hom(rng, A, H)
            g = random_hom(rng, H, random_group(rng))
        elif route in (1, 2):
            f = random_hom(rng, A, H)
            C, proj = cokernel(f)
            after = (random_automorphism(rng, C) if route == 1
                     else random_hom(rng, C, rng.choice([C, random_group(rng)])))
            g = after @ proj
        else:
            g = random_hom(rng, H, random_group(rng))
            K, incl = kernel(g)
            if route == 3:
                before = random_automorphism(rng, K)
            else:
                m = rng.randint(1, 3)
                scaled = [[m * x for x in row] for row in identity_rows(K.ngens)]
                before = GroupHom(K, K, IntMatrix(scaled, cols=K.ngens))
            f = incl @ before
        exact = is_exact_pair_by_invariant_factors(f, g)
        assert is_exact_pair(f, g) == exact
        seen[exact, (g @ f).is_zero(), f.codomain.is_finite()] += 1
    assert sum(n for (exact, _, _), n in seen.items() if exact) >= 100
    assert sum(n for (exact, _, _), n in seen.items() if not exact) >= 100
    # both verdicts reached the membership test with free coordinates
    assert seen[True, True, False] >= 50 and seen[False, True, False] >= 50


def test_cached_factorization_leaves_a_hom_immutable_and_comparable():
    f = GroupHom(FgAbelianGroup(1, (2,)), FgAbelianGroup(1, (4,)),
                 IntMatrix([[2, 0], [1, 2]]))
    g = GroupHom(f.domain, f.codomain, f.matrix)
    before = hash(f)
    assert f.presentation is f.presentation
    assert cokernel(f)[0] == f.presentation.group == FgAbelianGroup(0, (4,))
    assert f == g and g == f and hash(f) == hash(g) == before
    assert len({f, g}) == 1
    for name in ("matrix", "presentation", "_presentation"):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, None)


def test_presentation_into_a_free_group_copies_no_matrix(monkeypatch):
    # beyond the Smith form of the hom itself it builds only the
    # codomain's n x 0 relation matrix, not a copy of [f | R]
    f = GroupHom(FgAbelianGroup(2), FgAbelianGroup(3), IntMatrix([[1, 2], [3, 4], [5, 6]]))
    built = []
    original = IntMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counted)
    Presentation(f.matrix)
    direct = len(built)
    built.clear()
    f.presentation
    assert len(built) == direct + 1
