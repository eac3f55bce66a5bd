import itertools
import random
import time

import pytest

import kclass.dimgroup
from kclass.matrix import IntMatrix
from kclass.surd import QuadraticIrrational, same_field_root
from kclass.dimgroup import (
    StationaryDimensionGroup,
    SubstitutionInvariant,
    check_subst_witness,
    compare_substitution_invariants,
    cone_stabilizer_generator,
    is_positive_slope_map,
    order_iso_base,
    perron_slope,
)
from oracles import conjugating_permutation_bruteforce

FIB = IntMatrix([[1, 1], [1, 0]])
FIB4 = IntMatrix([[5, 3], [3, 2]])
PERTURBED = IntMatrix([[5, 3], [3, 3]])


def fib_group():
    return StationaryDimensionGroup(FIB)


def slope_sign(G, v):
    """Sign of v in the cone v0 + omega v1 > 0 of a primitive 2x2 group."""
    return (perron_slope(G) * v[1] + v[0]).sign()


def test_positivity_fibonacci_mixed_sign_vector():
    G = fib_group()
    assert slope_sign(G, (1, -1)) == 1
    assert slope_sign(G, (-1, 1)) == -1
    assert slope_sign(G, (0, 0)) == 0


def test_positivity_sign_flip():
    G = fib_group()
    rng = random.Random(5)
    for _ in range(30):
        v = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        assert slope_sign(G, tuple(-c for c in v)) == -slope_sign(G, v)


def test_positives_closed_under_addition():
    G = StationaryDimensionGroup(FIB4)
    rng = random.Random(7)
    found = 0
    while found < 50:
        x = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        y = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        if slope_sign(G, x) > 0 and slope_sign(G, y) > 0:
            assert slope_sign(G, (x[0] + y[0], x[1] + y[1])) > 0
            found += 1


def iterate_sign(M: IntMatrix, v, steps: int = 400):
    """Slow reference: iterate far past the exact engine's horizon."""
    v = list(v)
    for _ in range(steps):
        if any(v) and all(c >= 0 for c in v):
            return 1
        if any(v) and all(c <= 0 for c in v):
            return -1
        if not any(v):
            return 0
        v = list(M.apply(v))
    return None


def test_exact_engine_matches_long_iteration():
    rng = random.Random(19)
    mats = [FIB, FIB4, IntMatrix([[2, 1], [1, 0]])]
    for M in mats:
        G = StationaryDimensionGroup(M)
        for _ in range(34):
            v = (rng.randrange(-20, 21), rng.randrange(-20, 21))
            expected = iterate_sign(M, v)
            assert slope_sign(G, v) == expected


def test_positivity_requires_primitive_matrix():
    G = StationaryDimensionGroup(IntMatrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        perron_slope(G)
    G2 = StationaryDimensionGroup(IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        perron_slope(G2)


def test_primitivity_detection():
    assert StationaryDimensionGroup(FIB).is_primitive()
    assert StationaryDimensionGroup(FIB4).is_primitive()
    assert not StationaryDimensionGroup(IntMatrix([[0, 1], [1, 0]])).is_primitive()
    assert not StationaryDimensionGroup(IntMatrix([[1, -1], [1, 1]])).is_primitive()


def test_rational_eigenvalue_is_outside_the_exact_engine():
    G = StationaryDimensionGroup(IntMatrix([[2, 1], [1, 2]]))
    with pytest.raises(ValueError):
        perron_slope(G)
    # the substitution comparator reaches perron_slope only for primitive
    # unimodular matrices, whose Perron root is an integer unit above 1
    # when rational: impossible, so their slopes are always irrational
    for a, b, c, d in itertools.product(range(13), repeat=4):
        G = StationaryDimensionGroup(IntMatrix([[a, b], [c, d]]))
        if abs(a * d - b * c) == 1 and G.is_primitive():
            assert not perron_slope(G).is_rational


def test_perron_slope_fibonacci_is_golden_conjugate():
    w = perron_slope(fib_group())
    assert w == QuadraticIrrational(-1, 1, 2, 5)
    assert perron_slope(StationaryDimensionGroup(FIB4)) == w


def test_finitely_generated_trichotomy():
    assert StationaryDimensionGroup(FIB).is_finitely_generated() is True
    assert StationaryDimensionGroup(PERTURBED).is_finitely_generated() is False
    assert StationaryDimensionGroup(IntMatrix([[1, 1], [1, 1]])).is_finitely_generated() is None


def test_cone_stabilizer_fixes_positivity():
    G = fib_group()
    U = cone_stabilizer_generator(G)
    rng = random.Random(3)
    for _ in range(25):
        v = (rng.randrange(-8, 9), rng.randrange(-8, 9))
        before = slope_sign(G, v)
        after = slope_sign(G, U.apply(v))
        assert before == after == iterate_sign(FIB, v)


def test_cone_stabilizer_is_nontrivial_and_unimodular():
    U = cone_stabilizer_generator(fib_group())
    assert U != IntMatrix.identity(2)
    assert U != -IntMatrix.identity(2)
    assert abs(U.det()) == 1


def test_cone_stabilizer_matches_bounded_enumeration():
    # every small unimodular cone automorphism must be a power of the generator
    from kclass.matrix import unimodular_inverse

    G = fib_group()
    U = cone_stabilizer_generator(G)
    powers = set()
    P = IntMatrix.identity(2)
    Uinv = unimodular_inverse(U)
    for _ in range(12):
        powers.add(P)
        P = P @ U
    P = Uinv
    for _ in range(12):
        powers.add(P)
        P = P @ Uinv
    bound = 5
    hits = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    M = IntMatrix([[a, b], [c, d]])
                    if abs(a * d - b * c) != 1:
                        continue
                    if not is_positive_slope_map(G, G, M):
                        continue
                    hits += 1
                    assert M in powers
    assert hits > 3


def test_order_iso_base_identity_slope_pair():
    G1, G2 = fib_group(), StationaryDimensionGroup(FIB4)
    H = order_iso_base(G1, G2)
    assert H is not None
    assert is_positive_slope_map(G1, G2, H)


def test_order_iso_base_rejects_distinct_fields():
    G1 = fib_group()
    G2 = StationaryDimensionGroup(IntMatrix([[2, 1], [1, 0]]))
    w1, w2 = perron_slope(G1), perron_slope(G2)
    assert same_field_root(w1.d, w2.d) is None   # Q(sqrt(5)) against Q(sqrt(2))
    assert order_iso_base(G1, G2) is None


def example_invariant(F, A, n: int = 1, p=(1,)):
    m = A.rows
    rows = []
    for i in range(n):
        rows.append([1 if j == i else 0 for j in range(n)] + list(F[i]))
    for i in range(m):
        rows.append([0] * n + [A[i, j] for j in range(m)])
    return SubstitutionInvariant(n, p, A, IntMatrix(rows))


def test_substitution_invariant_validation():
    with pytest.raises(ValueError):
        SubstitutionInvariant(0, (), FIB, IntMatrix.identity(2))
    with pytest.raises(ValueError):
        SubstitutionInvariant(1, (1, 2), FIB, IntMatrix.identity(3))
    with pytest.raises(ValueError):
        SubstitutionInvariant(1, (1,), IntMatrix([[1, -1], [0, 1]]), IntMatrix.identity(3))
    bad_block = IntMatrix([[1, 0, 0], [1, 1, 1], [0, 1, 0]])
    with pytest.raises(ValueError):
        SubstitutionInvariant(1, (1,), FIB, bad_block)
    good = example_invariant([[1, 1]], FIB)
    assert good.alphabet_size == 2
    assert good.A_tilde[0, 0] == 1


def test_substitution_invariant_json_round_trip():
    inv = example_invariant([[2, 3]], FIB4)
    again = SubstitutionInvariant.from_json(inv.to_json())
    assert again == inv
    with pytest.raises(ValueError):
        SubstitutionInvariant.from_json({"n": 1, "p": [1], "A": [[1]]})
    # n and p are exact integers, like matrix entries: true is not read as 1
    data = inv.to_json()
    for key, value in (("n", True), ("p", [True]), ("p", [1.0])):
        with pytest.raises(ValueError, match="n and p must be integers"):
            SubstitutionInvariant.from_json(dict(data, **{key: value}))


def test_compare_reflexive_with_checked_witness():
    inv = example_invariant([[1, 1]], FIB4)
    verdict = compare_substitution_invariants(inv, inv)
    assert verdict.status == "isomorphic"
    assert check_subst_witness(inv, inv, verdict.witness)


def test_compare_same_reduction_different_lift():
    # both invariants reduce to the same ordered group with zero scale
    inv1 = example_invariant([[1, 1]], FIB4)
    inv2 = example_invariant([[2, 5]], FIB4)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "isomorphic"
    assert check_subst_witness(inv1, inv2, verdict.witness)


def test_compare_detects_generation_type_mismatch():
    inv1 = example_invariant([[1, 1]], FIB4)
    inv2 = example_invariant([[1, 1]], PERTURBED)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"
    assert "finitely generated" in verdict.certificate


def test_compare_counts_distinguished_generators():
    inv1 = example_invariant([[1, 1]], FIB4)
    inv2 = example_invariant([[1, 0], [0, 1]], FIB4, n=2, p=(1, 1))
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"


def test_compare_respects_distinguished_vector():
    inv1 = example_invariant([[1, 1]], FIB4, p=(2,))
    inv2 = example_invariant([[1, 1]], FIB4, p=(3,))
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"


def test_compare_fibonacci_against_its_fourth_power():
    assert FIB.power(4) == FIB4
    inv1 = example_invariant([[1, 1]], FIB)
    inv2 = example_invariant([[1, 1]], FIB4)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "isomorphic"
    assert check_subst_witness(inv1, inv2, verdict.witness)


def test_compare_distinct_quadratic_fields():
    inv1 = example_invariant([[1, 1]], FIB)
    inv2 = example_invariant([[1, 1]], IntMatrix([[2, 1], [1, 0]]))
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"
    assert "slope" in verdict.certificate


def test_compare_inequivalent_slopes_same_field():
    # golden-ratio slope against the period-four slope of sqrt(5) - 2
    A = IntMatrix([[4, 1], [1, 0]])
    w, w_fib = perron_slope(StationaryDimensionGroup(A)), perron_slope(fib_group())
    assert w.d == 20 and same_field_root(w.d, w_fib.d) == 10   # sqrt(20) = 2*sqrt(5)
    assert w != w_fib and hash(w * w_fib) == hash(w_fib * w)
    inv1 = example_invariant([[1, 1]], FIB)
    inv2 = example_invariant([[1, 1]], A)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"


def test_compare_permutation_conjugate_rank_three():
    A1 = IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    P = [2, 0, 1]
    A2p = [[A1[P.index(i), P.index(j)] for j in range(3)] for i in range(3)]
    A2 = IntMatrix([[A2p[i][j] for j in range(3)] for i in range(3)])
    inv1 = example_invariant([[1, 0, 0]], A1)
    inv2 = example_invariant([[1, 0, 0]], A2)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "isomorphic"
    assert check_subst_witness(inv1, inv2, verdict.witness)


def test_compare_rank_three_beyond_engine_is_unknown():
    A1 = IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    A2 = IntMatrix([[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    assert abs(A1.det()) == 1 and abs(A2.det()) == 1
    inv1 = example_invariant([[1, 0, 0]], A1)
    inv2 = example_invariant([[1, 0, 0]], A2)
    verdict = compare_substitution_invariants(inv1, inv2)
    if verdict.status == "isomorphic":
        assert check_subst_witness(inv1, inv2, verdict.witness)
    else:
        assert verdict.status == "unknown"


def test_compare_rank_mismatch_with_invertible_matrices():
    inv1 = example_invariant([[1, 1]], FIB4)
    inv2 = example_invariant([[1]], IntMatrix([[2]]))
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "not_isomorphic"
    assert "rank" in verdict.certificate


def test_compare_is_symmetric():
    pool = [
        example_invariant([[1, 1]], FIB),
        example_invariant([[1, 1]], FIB4),
        example_invariant([[1, 1]], PERTURBED),
        example_invariant([[1, 1]], IntMatrix([[2, 1], [1, 0]])),
        example_invariant([[1, 0], [0, 1]], FIB4, n=2, p=(1, 1)),
    ]
    for i1 in pool:
        for i2 in pool:
            v12 = compare_substitution_invariants(i1, i2)
            v21 = compare_substitution_invariants(i2, i1)
            assert v12.status == v21.status
            if v12.status == "isomorphic":
                assert check_subst_witness(i1, i2, v12.witness)
                assert check_subst_witness(i2, i1, v21.witness)


def test_witness_checker_rejects_tampering():
    inv1 = example_invariant([[1, 1]], FIB)
    inv2 = example_invariant([[1, 1]], FIB4)
    verdict = compare_substitution_invariants(inv1, inv2)
    w = dict(verdict.witness)
    w["phi3"] = [[1, 0], [0, -1]]
    assert not check_subst_witness(inv1, inv2, w)
    w2 = dict(verdict.witness)
    w2["p_permutation"] = [1]
    assert not check_subst_witness(inv1, inv2, w2)


def test_compare_returns_only_checked_witnesses(monkeypatch):
    build = kclass.dimgroup._subst_witness

    def tampered(*args):
        w = build(*args)
        w["phi3"] = [[1, 0], [0, -1]]
        return w
    monkeypatch.setattr(kclass.dimgroup, "_subst_witness", tampered)
    inv1 = example_invariant([[1, 1]], FIB)
    inv2 = example_invariant([[1, 1]], FIB4)
    swapped = example_invariant([[1, 1]], IntMatrix([[0, 1], [1, 1]]))
    # equal inputs, a letter permutation and the Perron-slope decision
    for a, b in [(inv1, inv1), (inv1, swapped), (inv1, inv2)]:
        verdict = compare_substitution_invariants(a, b)
        assert verdict.status == "unknown"
        assert "check_subst_witness" in verdict.reason


def conjugate(rows, perm):
    """The matrix B with B[perm[i]][perm[k]] = rows[i][k]."""
    m = len(rows)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for k in range(m):
            out[perm[i]][perm[k]] = rows[i][k]
    return out


def conjugacy_cases(rng):
    """Seeded pairs of nonnegative m x m matrices, m <= 6: random,
    circulant and all-equal matrices against random conjugates, half of
    them with one entry perturbed."""
    for _ in range(150):
        m = rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:
            rows = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(m)] for _ in range(m)]
        elif kind == 1:
            c = [rng.randint(0, 2) for _ in range(m)]
            rows = [[c[(k - i) % m] for k in range(m)] for i in range(m)]
        else:
            rows = [[rng.randint(0, 3)] * m for _ in range(m)]
        perm = list(range(m))
        rng.shuffle(perm)
        other = conjugate(rows, perm)
        if rng.random() < 0.5:
            i, k = rng.randrange(m), rng.randrange(m)
            other[i][k] += 1
        yield rows, other


# a 6-cycle against two triangles, undirected and directed: every letter
# looks alike, so colour refinement leaves one class on each side and
# only backtracking tells them apart
HEXAGON = [[1 if (i - k) % 6 in (1, 5) else 0 for k in range(6)] for i in range(6)]
TWO_TRIANGLES = [[1 if i != k and i // 3 == k // 3 else 0 for k in range(6)] for i in range(6)]
DIRECTED_HEXAGON = [[1 if k == (i + 1) % 6 else 0 for k in range(6)] for i in range(6)]
DIRECTED_TRIANGLES = [[1 if k == i // 3 * 3 + (i + 1) % 3 else 0 for k in range(6)]
                      for i in range(6)]


def test_conjugating_permutation_matches_the_scan():
    cases = list(conjugacy_cases(random.Random(16)))
    # 0/1 circulants on five letters: many automorphisms, so many
    # permutations pass the first checks and the first full match is late
    for c in itertools.product((0, 1), repeat=5):
        rows = [[c[(k - i) % 5] for k in range(5)] for i in range(5)]
        cases.append((rows, conjugate(rows, [0, 3, 1, 4, 2])))
    for one, other in ((HEXAGON, TWO_TRIANGLES), (DIRECTED_HEXAGON, DIRECTED_TRIANGLES)):
        cases += [(one, other), (other, one), (one, conjugate(one, [3, 1, 4, 0, 5, 2])),
                  (other, conjugate(other, [3, 1, 4, 0, 5, 2]))]
    for rows1, rows2 in cases:
        rows1 = tuple(map(tuple, rows1))
        rows2 = tuple(map(tuple, rows2))
        want = conjugating_permutation_bruteforce(rows1, rows2)
        assert kclass.dimgroup._conjugating_permutation(rows1, rows2) == (want, True)


@pytest.mark.parametrize("one, other", [(HEXAGON, TWO_TRIANGLES),
                                        (DIRECTED_HEXAGON, DIRECTED_TRIANGLES)])
def test_equal_colour_histograms_without_conjugacy(one, other):
    assert kclass.dimgroup._refined_colours(one, other) == ([0] * 6, [0] * 6)
    assert kclass.dimgroup._conjugating_permutation(one, other) == (None, True)


def twelve_letter_pair():
    rng = random.Random(12)
    rows = [[rng.choice((0, 0, 1, 2)) for _ in range(12)] for _ in range(12)]
    for i in range(12):
        rows[i][(i + 1) % 12] = 1  # a cycle through every letter
    rows[0][0] = 1  # and a loop: primitive
    perm = list(range(12))
    rng.shuffle(perm)
    return IntMatrix(rows), IntMatrix(conjugate(rows, perm))


def test_twelve_letter_conjugates_are_isomorphic():
    A1, A2 = twelve_letter_pair()
    assert StationaryDimensionGroup(A1).is_primitive()
    inv1 = example_invariant([[1] * 12], A1)
    inv2 = example_invariant([[1] * 12], A2)
    start = time.perf_counter()
    verdict = compare_substitution_invariants(inv1, inv2)
    assert time.perf_counter() - start < 1.0
    assert verdict.status == "isomorphic"
    assert check_subst_witness(inv1, inv2, verdict.witness)


def test_spent_conjugacy_budget_is_named(monkeypatch):
    A1, A2 = twelve_letter_pair()
    A1 = IntMatrix([row[:6] for row in A1.to_lists()[:6]])
    A2 = IntMatrix(conjugate(A1.to_lists(), [5, 3, 1, 0, 2, 4]))
    inv1 = example_invariant([[1] * 6], A1)
    inv2 = example_invariant([[1] * 6], A2)
    assert compare_substitution_invariants(inv1, inv2).status == "isomorphic"
    monkeypatch.setattr(kclass.dimgroup, "CONJUGACY_BUDGET", 1)
    verdict = compare_substitution_invariants(inv1, inv2)
    assert verdict.status == "unknown"
    assert "CONJUGACY_BUDGET = 1 " in verdict.reason
