"""Six-term invariants: validation, witnesses, and the decision procedure."""
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from oracles import ext_orbit_bruteforce, homs_bruteforce, sixterm_iso_bruteforce
from sampling import (ext_orbit_pairs, invariant_corpus, random_one_ideal_graph,
                      random_valid_invariant)

import kclass.ext
import kclass.groups
import kclass.matrix
import kclass.sixterm
import kclass.surd
from kclass.cli import main
from kclass.ext import ext1, extension_class, realize_extension
from kclass.graphalg import GraphKTheory
from kclass.groups import FgAbelianGroup, GroupHom, cokernel, kernel
from kclass.matrix import IntMatrix
from kclass.sixterm import (
    SixTermInvariant, ConeDescriptor, Witness, UnsupportedConeError,
    validate_sixterm, verify_witness, aut_plus_generators, decide_iso_one_ideal,
    all_positive_cone, standard_free_cone, stationary_cone, unordered_cone,
    NODES, MAP_KEYS, NotExactError,
)
from kclass.autgroups import aut_generators, subgroup_closure

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(0, (2,))
Z3 = FgAbelianGroup(0, (3,))
Z25 = FgAbelianGroup(0, (25,))
TRIV = FgAbelianGroup(0, ())
Z_X_Z3 = FgAbelianGroup(1, (3,))
FIB = IntMatrix([[1, 1], [1, 0]])
FIB4 = IntMatrix([[5, 3], [3, 2]])
SQRT2 = IntMatrix([[2, 1], [1, 0]])


def hom(dom, cod, rows=None):
    mat = IntMatrix(rows) if rows else IntMatrix.zeros(cod.ngens, dom.ngens)
    return GroupHom(dom, cod, mat)


def cyclic_extension(mid, iota_rows, pi_rows, cone_b=None, cone_a=None):
    """Hexagon with vanishing K1 row: 0 -> Z -> mid -> Z/3 -> 0."""
    groups = {"K0B": Z, "K0E": mid, "K0A": Z3,
              "K1A": TRIV, "K1E": TRIV, "K1B": TRIV}
    maps = {
        "K0B->K0E": hom(Z, mid, iota_rows),
        "K0E->K0A": hom(mid, Z3, pi_rows),
        "K0A->K1B": hom(Z3, TRIV),
        "K1B->K1E": hom(TRIV, TRIV),
        "K1E->K1A": hom(TRIV, TRIV),
        "K1A->K0B": hom(TRIV, Z),
    }
    cones = {"K0B": cone_b or standard_free_cone(),
             "K0E": unordered_cone(),
             "K0A": cone_a or all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


@pytest.fixture(scope="module")
def worked_trio():
    s1 = cyclic_extension(Z, [[3]], [[1]])
    s2 = cyclic_extension(Z, [[3]], [[2]])
    s3 = cyclic_extension(Z_X_Z3, [[1], [0]], [[0, 1]])
    return s1, s2, s3


def test_worked_trio_is_valid(worked_trio):
    for s in worked_trio:
        assert validate_sixterm(s) == []


def test_worked_trio_first_two_isomorphic(worked_trio):
    s1, s2, _ = worked_trio
    v = decide_iso_one_ideal(s1, s2)
    assert v.status == "isomorphic"
    assert verify_witness(s1, s2, v.witness)


def test_worked_trio_split_one_differs(worked_trio):
    s1, s2, s3 = worked_trio
    for s in (s1, s2):
        v = decide_iso_one_ideal(s, s3)
        assert v.status == "not_isomorphic"
        assert "K0E" in v.certificate


def test_worked_trio_witness_by_hand(worked_trio):
    # independent route: the only candidate squares over Aut(Z) = {1, -1}
    s1, s2, _ = worked_trio
    found = []
    for e in (1, -1):
        b = e          # eta0 * 3 = 3 * beta0 forces beta0 = eta0
        a = (2 * e) % 3  # pi2 . eta0 = alpha0 . pi1 with pi1 = 1, pi2 = 2
        if a in (1, 2):
            w = Witness(hom(Z, Z, [[b]]), hom(Z, Z, [[e]]), hom(Z3, Z3, [[a]]),
                        hom(TRIV, TRIV), hom(TRIV, TRIV), hom(TRIV, TRIV))
            if verify_witness(s1, s2, w):
                found.append((e, b, a))
    assert found


def test_validation_catches_broken_exactness():
    with pytest.raises(ValueError, match="^not exact at K0E$") as exc:
        cyclic_extension(Z, [[2]], [[1]])
    assert exc.value.failures == ["not exact at K0E"]


def test_decide_rejects_invalid_input():
    # a cycle that is not exact is no invariant, so it never reaches the
    # decision
    with pytest.raises(ValueError, match="not exact"):
        cyclic_extension(Z, [[2]], [[1]])


def test_all_trivial_hexagon():
    groups = {n: TRIV for n in NODES}
    maps = {k: hom(TRIV, TRIV) for k in MAP_KEYS}
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    s = SixTermInvariant(groups, maps, cones)
    assert validate_sixterm(s) == []
    v = decide_iso_one_ideal(s, s)
    assert v.status == "isomorphic"
    # tags at the ends may differ when the groups are trivial
    cones2 = {"K0B": unordered_cone(), "K0E": unordered_cone(),
              "K0A": standard_free_cone()}
    s2 = SixTermInvariant(groups, maps, cones2)
    assert decide_iso_one_ideal(s, s2).status == "isomorphic"


def test_stationary_cone_on_the_trivial_group():
    # every cone on the trivial group is the same cone, so no cone engine runs
    data = {"groups": {n: {"rank": 0, "torsion": []} for n in NODES},
            "maps": {k: [] for k in MAP_KEYS},
            "cones": {"K0B": {"tag": "stationary_dg", "matrix": []},
                      "K0E": {"tag": "unordered"}, "K0A": {"tag": "unordered"}}}
    s = SixTermInvariant.from_json(data)
    v = decide_iso_one_ideal(s, s)
    assert v.status == "isomorphic"
    assert v.witness == {name: [] for name in ("beta0", "eta0", "alpha0",
                                               "beta1", "eta1", "alpha1")}
    assert verify_witness(s, s, v.witness)
    # a falsy value is not the zero map
    assert not verify_witness(s, s, dict(v.witness, alpha0=None))


def test_aut_plus_generators_rank_one_free():
    gens = aut_plus_generators(Z, standard_free_cone())
    assert all(g == GroupHom.identity(Z) for g in gens)


def test_aut_plus_generators_finite_unordered():
    gens = aut_plus_generators(Z3, unordered_cone())
    closure = subgroup_closure(Z3, gens)
    mats = sorted(g.matrix[0, 0] for g in closure)
    assert mats == [1, 2]


def test_aut_plus_generators_standard_free_permutations():
    G = FgAbelianGroup(3, ())
    gens = aut_plus_generators(G, standard_free_cone())
    closure = subgroup_closure(G, gens)
    assert len(closure) == 6  # the permutations of three coordinates
    for g in closure:
        rows = g.matrix.to_lists()
        assert all(sorted(r) == [0, 0, 1] for r in rows)


def test_aut_plus_generators_stationary_is_cone_stabilizer():
    G = FgAbelianGroup(2, ())
    gens = aut_plus_generators(G, stationary_cone(FIB))
    assert len(gens) == 1
    assert gens[0].matrix.to_lists() == [[1, 1], [1, 0]]


def test_aut_plus_generators_unsupported_stationary():
    G = FgAbelianGroup(3, ())
    ones = IntMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(UnsupportedConeError):
        aut_plus_generators(G, stationary_cone(ones))


def test_cone_descriptor_validation():
    with pytest.raises(ValueError):
        ConeDescriptor("sideways")
    with pytest.raises(ValueError):
        ConeDescriptor("stationary_dg")  # matrix required
    with pytest.raises(ValueError):
        ConeDescriptor("unordered", IntMatrix([[1]]))
    # standard_free cone cannot sit on a torsion group
    groups = {n: Z3 if n == "K0B" else TRIV for n in NODES}
    maps = {k: hom(groups[k.split("->")[0]], groups[k.split("->")[1]])
            for k in MAP_KEYS}
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": unordered_cone()}
    with pytest.raises(ValueError):
        SixTermInvariant(groups, maps, cones)


def test_verify_witness_rejects_tampering(worked_trio):
    s1, s2, _ = worked_trio
    v = decide_iso_one_ideal(s1, s2)
    w = dict(v.witness)
    w["alpha0"] = [[1]]  # breaks the projection square
    assert verify_witness(s1, s2, v.witness)
    assert not verify_witness(s1, s2, w)
    w2 = dict(v.witness)
    w2["beta0"] = [[2]]  # not an automorphism of Z
    assert not verify_witness(s1, s2, w2)
    assert not verify_witness(s1, s2, {"beta0": [[1]]})


def test_json_round_trip(worked_trio):
    s1, _, s3 = worked_trio
    for s in (s1, s3):
        data = s.to_json()
        back = SixTermInvariant.from_json(data)
        assert back == s
        assert list(data["groups"]) == list(NODES)
        assert list(data["maps"]) == list(MAP_KEYS)


def mod25_hexagon(mults):
    groups = {n: Z25 for n in NODES}
    maps = {k: hom(Z25, Z25, [[m]]) for k, m in zip(MAP_KEYS, mults)}
    cones = {"K0B": all_positive_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_finite_search_separates_unit_products():
    # all maps multiply by 5 times a unit; a diagram isomorphism exists
    # exactly when the six unit ratios can cancel around the cycle
    base = mod25_hexagon([5] * 6)
    obstructed = mod25_hexagon([5, 5, 5, 5, 5, 10])
    compatible = mod25_hexagon([5, 10, 5, 10, 10, 10])
    assert validate_sixterm(base) == []
    assert validate_sixterm(obstructed) == []
    assert validate_sixterm(compatible) == []
    v = decide_iso_one_ideal(base, obstructed)
    assert v.status == "not_isomorphic"
    v2 = decide_iso_one_ideal(base, compatible)
    assert v2.status == "isomorphic"
    assert verify_witness(base, compatible, v2.witness)
    # symmetry of both verdicts
    assert decide_iso_one_ideal(obstructed, base).status == "not_isomorphic"
    assert decide_iso_one_ideal(compatible, base).status == "isomorphic"


def infinite_k1_hexagon(iota1):
    groups = {"K0B": Z, "K0E": Z2, "K0A": TRIV,
              "K1A": Z, "K1E": Z, "K1B": Z}
    maps = {
        "K0B->K0E": hom(Z, Z2, [[1]]),
        "K0E->K0A": hom(Z2, TRIV),
        "K0A->K1B": hom(TRIV, Z),
        "K1B->K1E": hom(Z, Z, [[iota1]]),
        "K1E->K1A": hom(Z, Z, [[0]]),
        "K1A->K0B": hom(Z, Z, [[2]]),
    }
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_sign_twist_on_infinite_k1_row():
    s = infinite_k1_hexagon(1)
    t = infinite_k1_hexagon(-1)
    assert validate_sixterm(s) == []
    assert validate_sixterm(t) == []
    v = decide_iso_one_ideal(s, t)
    assert v.status == "isomorphic"
    assert verify_witness(s, t, v.witness)
    assert decide_iso_one_ideal(t, s).status == "isomorphic"


def stationary_end_hexagon(cone_mat):
    n = cone_mat.rows
    Zn = FgAbelianGroup(n, ())
    groups = {"K0B": Zn, "K0E": Zn, "K0A": TRIV,
              "K1A": TRIV, "K1E": TRIV, "K1B": TRIV}
    maps = {
        "K0B->K0E": GroupHom(Zn, Zn, IntMatrix.identity(n)),
        "K0E->K0A": hom(Zn, TRIV),
        "K0A->K1B": hom(TRIV, TRIV),
        "K1B->K1E": hom(TRIV, TRIV),
        "K1E->K1A": hom(TRIV, TRIV),
        "K1A->K0B": hom(TRIV, Zn),
    }
    cones = {"K0B": stationary_cone(cone_mat), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_stationary_ends_same_slope_class():
    s = stationary_end_hexagon(FIB)
    t = stationary_end_hexagon(FIB4)
    v = decide_iso_one_ideal(s, t)
    assert v.status == "isomorphic"
    assert verify_witness(s, t, v.witness)


def test_stationary_ends_distinct_slope_class():
    s = stationary_end_hexagon(FIB)
    t = stationary_end_hexagon(SQRT2)
    v = decide_iso_one_ideal(s, t)
    assert v.status == "not_isomorphic"
    assert "K0B" in v.certificate


def test_cones_beyond_the_rank2_engine_are_unsupported_everywhere():
    """Primitive matrices with a rational Perron eigenvalue (4 and 2) and
    a 3x3 matrix: no witness check, generator list or decision claims them."""
    for rows in ([[2, 2], [1, 3]], [[1, 1], [1, 1]], [[1, 1, 1], [1, 1, 1], [1, 1, 1]]):
        s = stationary_end_hexagon(IntMatrix(rows))
        ident = Witness(*(GroupHom.identity(s.groups[n])
                          for n in ("K0B", "K0E", "K0A", "K1B", "K1E", "K1A")))
        assert not verify_witness(s, s, ident)
        with pytest.raises(UnsupportedConeError):
            aut_plus_generators(s.groups["K0B"], s.cones["K0B"])
        v = decide_iso_one_ideal(s, s)
        assert v.status == "unknown"
        assert v.reason == "stationary cone beyond the rank-2 engine"


def test_slope_past_its_cf_budget_is_unknown(monkeypatch):
    """The slope of [[1,1],[46,1]] is 1/sqrt(46), whose continued fraction
    has period 12: past a 5-digit budget the decision is unknown."""
    monkeypatch.setattr(kclass.surd, "CF_STEPS", 5)
    s = stationary_end_hexagon(IntMatrix([[1, 1], [46, 1]]))
    v = decide_iso_one_ideal(s, s)
    assert v.status == "unknown"
    assert v.reason == "stationary cone beyond the rank-2 engine"


def test_cone_tag_mismatch_on_nontrivial_end():
    s = stationary_end_hexagon(FIB)
    groups, maps = dict(s.groups), dict(s.maps)
    cones = {"K0B": all_positive_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    t = SixTermInvariant(groups, maps, cones)
    v = decide_iso_one_ideal(s, t)
    assert v.status == "not_isomorphic"
    assert "cone" in v.certificate


def test_group_mismatch_certificate(worked_trio):
    s1, _, s3 = worked_trio
    other = cyclic_extension(Z, [[3]], [[1]])
    groups = dict(other.groups)
    groups["K1B"] = Z2
    maps = dict(other.maps)
    maps["K0A->K1B"] = hom(Z3, Z2)
    maps["K1B->K1E"] = hom(Z2, TRIV)
    # the altered hexagon is no longer exact at K1B
    with pytest.raises(ValueError, match="not exact at K1B"):
        SixTermInvariant(groups, maps, dict(other.cones))
    # s1 and s3 are exact and differ only in the group at K0E
    assert [n for n in NODES if s1.groups[n] != s3.groups[n]] == ["K0E"]
    v = decide_iso_one_ideal(s1, s3)
    assert v.status == "not_isomorphic"
    assert v.certificate == f"groups at K0E differ: {Z} vs {Z_X_Z3}"


def z4_cycle(mults):
    Z4 = FgAbelianGroup(0, (4,))
    groups = {n: Z4 for n in NODES}
    maps = {k: hom(Z4, Z4, [[m]]) for k, m in zip(MAP_KEYS, mults)}
    return SixTermInvariant(groups, maps, {n: unordered_cone() for n in ("K0B", "K0E", "K0A")})


def quotient_cycle(incl, proj, onto):
    """Z/2 -> Z/2 x Z/4 -> Z/2 x Z/4 -> Z/2 around K1A, K0B, K0E, K0A.
    Both choices of the Z/2 in K0B have kernel Z/2 and cokernel Z/2 at
    K0B->K0E, but the quotients of K0B by them, Z/2 x Z/2 and Z/4, are
    the kernels of K0E->K0A."""
    G = FgAbelianGroup(0, (2, 4))
    groups = {"K0B": G, "K0E": G, "K0A": Z2, "K1B": TRIV, "K1E": TRIV, "K1A": Z2}
    maps = {"K0B->K0E": hom(G, G, proj), "K0E->K0A": hom(G, Z2, onto),
            "K0A->K1B": hom(Z2, TRIV), "K1B->K1E": hom(TRIV, TRIV),
            "K1E->K1A": hom(TRIV, Z2), "K1A->K0B": hom(Z2, G, incl)}
    return SixTermInvariant(groups, maps, {n: unordered_cone() for n in ("K0B", "K0E", "K0A")})


def test_map_shape_certificates_read_the_cokernels(monkeypatch):
    # equal groups and cones, different kernels or cokernels; the first
    # pair differs at the first map, the second only from K0E->K0A on
    cases = [
        (z4_cycle([2] * 6), z4_cycle([1, 0] * 3), "K0B->K0E"),
        (quotient_cycle([[0], [2]], [[1, 0], [0, 2]], [[0, 1]]),
         quotient_cycle([[1], [0]], [[0, 0], [0, 1]], [[1, 0]]), "K0E->K0A"),
    ]
    calls = Counter()
    for name in ("kernel", "cokernel"):
        def counted(h, name=name, original=getattr(kclass.sixterm, name)):
            calls[name] += 1
            return original(h)
        monkeypatch.setattr(kclass.sixterm, name, counted)
    for a, b, key in cases:
        for s, t in ((a, b), (b, a)):
            v = decide_iso_one_ideal(s, t)
            assert v.status == "not_isomorphic"
            assert v.certificate == f"kernel or cokernel of the map {key} differs"
    # exactness fixes every kernel, so six cokernel groups per invariant
    # settle the stage without a kernel or cokernel map
    assert calls == Counter()


def test_decide_is_reflexive_on_mixed_examples(worked_trio):
    s1, s2, s3 = worked_trio
    pool = [s1, s2, s3, mod25_hexagon([5] * 6), infinite_k1_hexagon(1),
            stationary_end_hexagon(FIB)]
    for s in pool:
        v = decide_iso_one_ideal(s, s)
        assert v.status == "isomorphic"
        assert verify_witness(s, s, v.witness)


def free_end_hexagon(sign, cone_a=None, k1e=False):
    """K0B = K0E = Z^2 over K0A = Z, with image(delta) = Z(1, sign) in
    K0B, and K1A = Z (or K1A = Z^2 over K1E = Z when k1e is set)."""
    Z2F = FgAbelianGroup(2, ())
    k1a = Z2F if k1e else Z
    groups = {"K0B": Z2F, "K0E": Z2F, "K0A": Z,
              "K1A": k1a, "K1E": Z if k1e else TRIV, "K1B": TRIV}
    delta = [[1, 0], [sign, 0]] if k1e else [[1], [sign]]
    maps = {
        "K0B->K0E": hom(Z2F, Z2F, [[1, -sign], [0, 0]]),
        "K0E->K0A": hom(Z2F, Z, [[0, 1]]),
        "K0A->K1B": hom(Z, TRIV),
        "K1B->K1E": hom(TRIV, groups["K1E"]),
        "K1E->K1A": hom(groups["K1E"], k1a, [[0], [1]] if k1e else None),
        "K1A->K0B": hom(k1a, Z2F, delta),
    }
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": cone_a or standard_free_cone()}
    return SixTermInvariant(groups, maps, cones)


# By hand: the order automorphisms of (Z^2, coordinate cone) are the two
# permutation matrices, and both fix (1, 1).  So when image(delta) is
# Z(1, 1) in one invariant and Z(1, -1) in the other, the square
# delta2 . alpha1 = beta0 . delta1 at K1A -> K0B fails for every beta0.
def assert_proved_apart(s, t):
    assert validate_sixterm(s) == [] and validate_sixterm(t) == []
    for a, b in ((s, t), (t, s)):
        v = decide_iso_one_ideal(a, b)
        assert v.status == "not_isomorphic"
        assert v.certificate.startswith("no automorphism pair at the ends")


def test_infinite_eta0_corrections_do_not_block_a_proof():
    # eta0's corrections are Hom(Z, Z); the five lemma makes them moot
    assert_proved_apart(free_end_hexagon(1), free_end_hexagon(-1))


def test_unsolvable_square_with_infinite_family_is_a_proof():
    # alpha1's correction family is infinite, but its square has no solution
    assert_proved_apart(free_end_hexagon(1, k1e=True),
                        free_end_hexagon(-1, k1e=True))


def test_unknown_names_the_sampled_node():
    # Aut(Z) at an unordered K0A is sampled by a word ball, so the search
    # proves nothing there and must say so
    s = free_end_hexagon(1, cone_a=unordered_cone())
    t = free_end_hexagon(-1, cone_a=unordered_cone())
    for a, b in ((s, t), (t, s)):
        v = decide_iso_one_ideal(a, b)
        assert v.status == "unknown"
        assert v.reason == "no witness among the sampled automorphisms at K0A"


# free_end_hexagon(1) and (-1) are proved apart by trying both order
# automorphisms of (Z^2, coordinate cone) at K0B: two end pairs.
@pytest.mark.parametrize("bound, value, reason", [
    ("PAIR_BUDGET", 1, "pair budget exhausted before a decision: PAIR_BUDGET = 1"),
    ("CLOSURE_LIMIT", 1, "automorphism enumeration exceeded its limit: CLOSURE_LIMIT = 1"),
])
def test_exhausted_search_bound_is_unknown(monkeypatch, bound, value, reason):
    s, t = free_end_hexagon(1), free_end_hexagon(-1)
    monkeypatch.setattr(kclass.sixterm, bound, value + 1)
    assert decide_iso_one_ideal(s, t).status == "not_isomorphic"
    monkeypatch.setattr(kclass.sixterm, bound, value)
    v = decide_iso_one_ideal(s, t)
    assert (v.status, v.reason) == ("unknown", reason)


def z2_five_hexagon(image):
    """K1A = Z/2 -> K0B = (Z/2)^5 onto ``image`` (e5 or e4 + e5), then K0B
    onto K0E = (Z/2)^4 with that kernel; the other nodes are trivial."""
    B, E = FgAbelianGroup(0, (2,) * 5), FgAbelianGroup(0, (2,) * 4)
    proj = [[int(i == j) for j in range(5)] for i in range(4)]
    proj[3][4] = image[3]
    groups = {"K0B": B, "K0E": E, "K0A": TRIV, "K1A": Z2, "K1E": TRIV, "K1B": TRIV}
    maps = {"K0B->K0E": hom(B, E, proj), "K0E->K0A": hom(E, TRIV),
            "K0A->K1B": hom(TRIV, TRIV), "K1B->K1E": hom(TRIV, TRIV),
            "K1E->K1A": hom(TRIV, Z2), "K1A->K0B": hom(Z2, B, [[x] for x in image])}
    cones = {"K0B": all_positive_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_end_with_too_many_automorphisms_is_refused_at_once():
    # |Aut((Z/2)^5)| = |GL(5, 2)| = 9,999,360 exceeds CLOSURE_LIMIT, so the
    # search gives up without listing 10^5 of them first
    s = z2_five_hexagon([0, 0, 0, 0, 1])
    t = z2_five_hexagon([0, 0, 0, 1, 1])
    start = time.perf_counter()
    v = decide_iso_one_ideal(s, t)
    assert time.perf_counter() - start < 1.0
    assert (v.status, v.reason) == (
        "unknown", "automorphism enumeration exceeded its limit: CLOSURE_LIMIT = 100000")


def prime_end_hexagon(sign):
    """K0B = K0E = Z/(2^61 - 1) by the inclusion 1 and K1B = K1E = Z by
    ``sign``; K0A and K1A are trivial."""
    P = FgAbelianGroup(0, (2**61 - 1,))
    groups = {"K0B": P, "K0E": P, "K0A": TRIV, "K1A": TRIV, "K1E": Z, "K1B": Z}
    maps = {"K0B->K0E": hom(P, P, [[1]]), "K0E->K0A": hom(P, TRIV),
            "K0A->K1B": hom(TRIV, Z), "K1B->K1E": hom(Z, Z, [[sign]]),
            "K1E->K1A": hom(Z, TRIV), "K1A->K0B": hom(TRIV, P)}
    cones = {"K0B": all_positive_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_end_with_a_large_prime_factor_is_refused_without_factoring(monkeypatch):
    # |Aut(Z/d)| = phi(d) >= sqrt(d / 2) exceeds CLOSURE_LIMIT for this
    # prime d, so the search refuses before aut_order trial-divides d
    real = kclass.sixterm.aut_order

    def aut_order(G):
        assert max(G.torsion, default=0) < 2**61 - 1, "aut_order trial-divides a 61-bit prime"
        return real(G)

    monkeypatch.setattr(kclass.sixterm, "aut_order", aut_order)
    start = time.perf_counter()
    v = decide_iso_one_ideal(prime_end_hexagon(1), prime_end_hexagon(-1))
    assert time.perf_counter() - start < 1.0
    assert (v.status, v.reason) == (
        "unknown", "automorphism enumeration exceeded its limit: CLOSURE_LIMIT = 100000")


def z7_extension(k):
    """0 -> Z -> Z -> Z/7 -> 0 with maps 7 and k, and a vanishing K1 row."""
    Z7 = FgAbelianGroup(0, (7,))
    groups = {"K0B": Z, "K0E": Z, "K0A": Z7, "K1A": TRIV, "K1E": TRIV, "K1B": TRIV}
    maps = {"K0B->K0E": hom(Z, Z, [[7]]), "K0E->K0A": hom(Z, Z7, [[k]]),
            "K0A->K1B": hom(Z7, TRIV), "K1B->K1E": hom(TRIV, TRIV),
            "K1E->K1A": hom(TRIV, TRIV), "K1A->K0B": hom(TRIV, Z)}
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_exhausted_orbit_limit_is_unknown(monkeypatch):
    # the two extension classes meet only after more than two orbit states
    s, t = z7_extension(1), z7_extension(2)
    assert decide_iso_one_ideal(s, t).status == "isomorphic"
    monkeypatch.setattr(kclass.sixterm, "ORBIT_LIMIT", 2)
    v = decide_iso_one_ideal(s, t)
    assert (v.status, v.reason) == (
        "unknown", "extension class orbit exceeded the search limit: ORBIT_LIMIT = 2")


def test_ext_orbit_stage_matches_the_orbit_oracle():
    # each pair agrees on its groups, cones and map shapes and has a
    # trivial K1 row, so unless the two are equal the Ext-orbit stage
    # decides it: isomorphic exactly when the second class lies in the
    # orbit of the first
    orbit_cert = "extension classes differ under every order-compatible automorphism pair"
    verdicts = Counter()
    for first, second, x, y in ext_orbit_pairs(29, 200):
        v = decide_iso_one_ideal(first, second)
        assert (v.status == "isomorphic") == (y.coords in ext_orbit_bruteforce(x)), (x, y)
        if v.status == "isomorphic":
            assert verify_witness(first, second, v.witness)
            verdicts["isomorphic", first == second] += 1
        else:
            verdicts[v.status, v.certificate] += 1
    assert set(verdicts) <= {("not_isomorphic", orbit_cert),
                             ("isomorphic", False), ("isomorphic", True)}
    assert verdicts["not_isomorphic", orbit_cert] >= 20, verdicts
    assert verdicts["isomorphic", False] >= 20, verdicts


def test_extension_classes_trust_the_exact_invariant(monkeypatch):
    # a six-term invariant is proved exact when it is built and
    # realize_extension is exact by construction, so neither the Ext
    # route nor extension_class proves exactness again; the one cokernel
    # in ext is realize_extension building its middle group
    calls = Counter()
    for name in ("kernel", "cokernel", "is_exact_pair"):
        def counted(*args, name=name, original=getattr(kclass.groups, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(kclass.ext, name, counted, raising=False)

    def counted_class(incl, proj, original=kclass.sixterm.extension_class):
        calls["extension_class"] += 1
        return original(incl, proj)
    monkeypatch.setattr(kclass.sixterm, "extension_class", counted_class)
    for k in (2, 3):
        v = decide_iso_one_ideal(z7_extension(1), z7_extension(k))
        assert v.status == "isomorphic"
    E = ext1(FgAbelianGroup(0, (2, 4)), FgAbelianGroup(1, (4,)))
    for coords in [(1, 0, 1, 2), (0, 3, 1, 0)]:
        x = E.element(coords)
        assert extension_class(*realize_extension(x)[1:]) == x
    assert calls == Counter(extension_class=4, cokernel=2)


class _RouteReached(Exception):
    pass


def test_each_map_is_factored_once(monkeypatch):
    # loading an invariant factors each of its distinct maps once, to
    # prove exactness; the decision then reads the map shapes off those
    # factorizations and needs no Smith form of its own before the
    # identity shortcut or a route, and neither do the extension class of
    # a K0 row that is short exact or the inverse of a map known to be an
    # isomorphism
    calls = Counter()
    original = kclass.matrix.snf

    def counted(M):
        calls["snf"] += 1
        return original(M)
    for module in (kclass.matrix, kclass.groups):
        monkeypatch.setattr(module, "snf", counted)
    # every binding of the two solvers that lift without a hom's Smith form
    for name in ("unimodular_inverse", "solve"):
        def counted_solver(*args, name=name, original=getattr(kclass.matrix, name)):
            calls[name] += 1
            return original(*args)
        for module in (kclass.matrix, kclass.groups, kclass.ext, kclass.graphalg):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted_solver)

    rng = random.Random(19)
    corpus = invariant_corpus(17, 80)
    invs = corpus + [_twisted(inv, rng)[0] for inv in corpus[:40]]
    loaded = []
    short_exact = 0
    for inv in invs:
        before = calls["snf"]
        loaded.append(SixTermInvariant.from_json(inv.to_json()))
        maps = loaded[-1].maps
        # equal maps of one invariant are one object
        distinct = len(set(maps.values()))
        assert len({id(h) for h in maps.values()}) == distinct
        assert calls["snf"] - before == distinct
        if maps["K1A->K0B"].is_zero() and maps["K0A->K1B"].is_zero():
            extension_class(maps["K0B->K0E"], maps["K0E->K0A"])
            assert calls["snf"] - before == distinct
            short_exact += 1
    assert short_exact >= 40, short_exact

    inverted = 0
    for G in {G for inv in loaded for G in inv.groups.values()}:
        for h in aut_generators(G):
            assert h.is_isomorphism()
            before = calls["snf"]
            assert (h @ h.inverse()) == GroupHom.identity(G)
            assert calls["snf"] == before
            inverted += 1
    assert inverted >= 20, inverted

    # a graph's K-groups come from one factorization of its matrix
    graph_rng = random.Random(23)
    for _ in range(20):
        g = random_one_ideal_graph(graph_rng)
        before = calls["snf"]
        GraphKTheory(g, af=False)
        assert calls["snf"] - before == 1

    # a one-ideal invariant factors the matrix of each side that is not
    # af and proves its six maps exact; every other factorization is the
    # cached one of a vertex-class or cycles hom: K0 lifts and K1
    # coordinates are preimages under those, with no unimodular inverse
    # and no solve.  An af side factors nothing: its K1 is 0 and its K0
    # generators lift to the sinks.
    made = []

    class Recorded(GraphKTheory):
        def __init__(self, graph, af):
            super().__init__(graph, af)
            made.append((self, af))
    monkeypatch.setattr(kclass.graphalg, "GraphKTheory", Recorded)
    solvers = calls["unimodular_inverse"], calls["solve"]
    lifted = af_sides = 0
    for _ in range(300):
        g = random_one_ideal_graph(graph_rng)
        made.clear()
        before = calls["snf"]
        kclass.graphalg.one_ideal_invariant(g)
        cached = sum(h._presentation is not None
                     for kt, _ in made for h in (kt.vertex_classes, kt.cycles))
        factored = sum(not af for _, af in made)
        assert len(made) == 3 and calls["snf"] - before == factored + 6 + cached
        for kt, af in made:
            if af:
                assert kt.vertex_classes._presentation is None and kt.k1.is_trivial()
        lifted += any(kt.cycles._presentation is not None for kt, _ in made)
        af_sides += factored < 3
    assert (calls["unimodular_inverse"], calls["solve"]) == solvers
    assert lifted >= 8, lifted
    assert af_sides >= 50, af_sides

    # kernels and realized extensions lift through the quotient onto the
    # kernel or the middle group, with no unimodular inverse
    for inv in loaded[:60]:
        for f in inv.maps.values():
            kernel(f)
        E = ext1(inv.groups["K0A"], inv.groups["K0B"])
        realize_extension(E.element([rng.randint(0, 6) for _ in E.moduli]))
    assert calls["unimodular_inverse"] == solvers[0]

    routes = ("_identity_witness", "_ext_route", "_general_search")
    for name in routes:
        def reached(*args, name=name):
            raise _RouteReached(name)
        monkeypatch.setattr(kclass.sixterm, name, reached)
    ends = Counter()
    for a, b in itertools.combinations(loaded, 2):
        if a.groups != b.groups:
            continue
        before = calls["snf"]
        try:
            ends[kclass.sixterm._decide(a, b).status] += 1
        except _RouteReached as route:
            ends[route.args[0]] += 1
        assert calls["snf"] == before
    assert min(ends[name] for name in routes) >= 5 and ends["not_isomorphic"] >= 20


def test_exhausted_budget_is_a_result_on_the_command_line(monkeypatch, capsys, tmp_path):
    paths = []
    for sign in (1, -1):
        paths.append(tmp_path / f"s{sign}.json")
        paths[-1].write_text(json.dumps(free_end_hexagon(sign).to_json()))
    monkeypatch.setattr(kclass.sixterm, "PAIR_BUDGET", 1)
    rc = main(["sixterm", "compare", *map(str, paths)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"verdict": "unknown",
                               "reason": "pair budget exhausted before a decision: "
                                         "PAIR_BUDGET = 1"}


def write_batch(tmp_path, invs, pairs):
    """One file per invariant and a manifest of the index pairs."""
    for i, inv in enumerate(invs):
        (tmp_path / f"inv{i}.json").write_text(json.dumps(inv.to_json()))
    manifest = tmp_path / "man.json"
    manifest.write_text(json.dumps([[f"inv{i}.json", f"inv{j}.json"] for i, j in pairs]))
    return str(manifest)


def count_loading_snf(monkeypatch):
    """Count the Smith forms computed inside SixTermInvariant.from_json."""
    calls = Counter()
    real_snf, real_load = kclass.matrix.snf, SixTermInvariant.from_json.__func__

    def snf(M):
        calls["snf"] += calls["loading"] > 0
        return real_snf(M)

    def from_json(cls, data, homs=None):
        calls["loading"] += 1
        try:
            return real_load(cls, data, homs)
        finally:
            calls["loading"] -= 1
    for module in (kclass.matrix, kclass.groups):
        monkeypatch.setattr(module, "snf", snf)
    monkeypatch.setattr(SixTermInvariant, "from_json", classmethod(from_json))
    return calls


def test_batch_factors_each_distinct_map_once(monkeypatch, capsys, tmp_path):
    rng = random.Random(41)
    corpus = invariant_corpus(43, 64)
    invs = corpus + [_twisted(inv, rng)[0] for inv in corpus[:24]]
    pairs = (list(itertools.combinations(range(64), 2))
             + [(i, 64 + i) for i in range(24)] + [(i, i) for i in range(0, 64, 8)])
    manifest = write_batch(tmp_path, invs, pairs)
    # the same decisions on invariants that each load with a table of their own
    alone = [SixTermInvariant.from_json(inv.to_json()) for inv in invs]
    expected = [decide_iso_one_ideal(alone[i], alone[j]).to_json() for i, j in pairs]
    # every twisted and every repeated pair comes with a witness
    assert Counter(r["verdict"] for r in expected)["isomorphic"] >= 24 + 8
    distinct = len({h for inv in alone for h in inv.maps.values()})
    assert distinct < 3 * len(invs)

    calls = count_loading_snf(monkeypatch)
    for run in (1, 2):
        rc = main(["sixterm", "compare", "--batch", manifest])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert json.loads(out)["results"] == expected
        # one Smith form per distinct map, and none kept from an earlier run
        assert calls["snf"] == run * distinct


def test_maps_with_one_matrix_and_different_codomains_stay_apart():
    # Z -> Z/2 and Z -> Z/4 by [[1]]: one matrix, two maps
    def quotient_row(d):
        Zd = FgAbelianGroup(0, (d,))
        groups = {"K0B": Z, "K0E": Z, "K0A": Zd, "K1A": TRIV, "K1E": TRIV, "K1B": TRIV}
        maps = {key: hom(groups[key[:3]], groups[key[5:]]) for key in MAP_KEYS}
        maps.update({"K0B->K0E": hom(Z, Z, [[d]]), "K0E->K0A": hom(Z, Zd, [[1]])})
        cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
                 "K0A": all_positive_cone()}
        return SixTermInvariant(groups, maps, cones).to_json()

    homs = {}
    a, b = (SixTermInvariant.from_json(quotient_row(d), homs) for d in (2, 4))
    pa, pb = a.maps["K0E->K0A"], b.maps["K0E->K0A"]
    assert pa is not pb and pa.matrix == pb.matrix
    assert (pa.codomain, pb.codomain) == (FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (4,)))
    # the maps among trivial groups and into K0B = Z are one object each,
    # so the table holds five maps of the first cycle and three of the second
    for key in ("K1B->K1E", "K1E->K1A", "K1A->K0B"):
        assert a.maps[key] is b.maps[key]
    assert a.maps["K1B->K1E"] is a.maps["K1E->K1A"]
    assert len(homs) == 8


def test_loading_composes_no_hom(monkeypatch):
    # exactness applies each map to the columns of the one before it
    # instead of building the composed map
    calls = Counter()
    real = GroupHom.__matmul__

    def counted(g, f):
        calls["matmul"] += 1
        return real(g, f)
    monkeypatch.setattr(GroupHom, "__matmul__", counted)
    loaded = [SixTermInvariant.from_json(inv.to_json()) for inv in invariant_corpus(23, 12)]
    assert len(loaded) == 12 and calls["matmul"] == 0
    # a map outside the next kernel, an image short of it, and a zero map
    for k, key, matrix, failures in [
            (1, "K0B->K0E", [[5]], ["not exact at K0E"]),
            (1, "K0B->K0E", [[14]], ["not exact at K0E"]),
            (2, "K0E->K0A", [[0]], ["not exact at K0E", "not exact at K0A"])]:
        data = z7_extension(k).to_json()
        data["maps"][key] = matrix
        with pytest.raises(NotExactError) as exc:
            SixTermInvariant.from_json(data)
        assert exc.value.failures == failures
    assert calls["matmul"] == 0


def test_cycle_that_is_not_exact_ends_a_sharing_batch(capsys, tmp_path):
    # the broken cycle shares five maps with z7_extension(1), loaded before it
    broken = z7_extension(1).to_json()
    broken["maps"]["K0B->K0E"] = [[5]]
    manifest = write_batch(tmp_path, [z7_extension(1), z7_extension(2)], [(0, 1)])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    expected = f"error: bad six-term invariant in {path}: not exact at K0E\n"
    rc = main(["sixterm", "compare", str(tmp_path / "inv0.json"), str(path)])
    assert (rc, *capsys.readouterr()) == (2, "", expected)
    Path(manifest).write_text(json.dumps([["inv0.json", "inv1.json"], ["inv1.json", "broken.json"]]))
    rc = main(["sixterm", "compare", "--batch", manifest])
    assert (rc, *capsys.readouterr()) == (2, "", expected)


def _twisted(inv, rng):
    """A copy of inv with every map conjugated by random automorphisms,
    and the twist phi: an isomorphism from inv to the copy."""
    phi = {}
    for node in NODES:
        G = inv.groups[node]
        gens = aut_generators(G)
        phi[node] = GroupHom.identity(G)
        for _ in range(rng.randint(0, 3) if gens else 0):
            phi[node] = rng.choice(gens) @ phi[node]
    maps = {}
    for key in MAP_KEYS:
        src, dst = key.split("->")
        maps[key] = phi[dst] @ inv.maps[key] @ phi[src].inverse()
    return SixTermInvariant(dict(inv.groups), maps, dict(inv.cones)), phi


def test_decision_matches_bruteforce_oracle_on_finite_invariants():
    rng = random.Random(8)
    small = [inv for inv in invariant_corpus(11, 300)
             if all(G.order() is not None and G.order() <= 72
                    for G in inv.groups.values())]
    pairs = [(inv, _twisted(inv, rng)[0]) for inv in small]
    for a, b in itertools.combinations(small, 2):
        if a.groups == b.groups:
            pairs.append((a, b))
    counts = Counter()
    for a, b in pairs:
        v = decide_iso_one_ideal(a, b)
        expected = "isomorphic" if sixterm_iso_bruteforce(a, b) else "not_isomorphic"
        assert v.status == expected
        if expected == "isomorphic":
            assert verify_witness(a, b, v.witness)
        k1_trivial = all(a.groups[n].is_trivial() for n in ("K1B", "K1E", "K1A"))
        counts[v.status, k1_trivial] += 1
    assert counts["isomorphic", False] + counts["isomorphic", True] >= 100
    assert counts["not_isomorphic", False] + counts["not_isomorphic", True] >= 100
    assert counts["isomorphic", True] >= 10 and counts["not_isomorphic", True] >= 10


def test_map_shapes_from_cokernels_match_kernel_and_cokernel():
    # by exactness ker f_i = coker f_{i-2}: the decision reads each map's
    # shape off the six cokernels, checked here against both computed
    rng = random.Random(14)
    invs = invariant_corpus(13, 120) + [random_valid_invariant(rng) for _ in range(100)]
    invs += [_twisted(inv, rng)[0] for inv in invs[:100]]
    assert len(invs) >= 300
    for inv in invs:
        cok = kclass.sixterm._cokernels(inv)
        for i, key in enumerate(MAP_KEYS):
            h = inv.maps[key]
            assert (cok[i - 2], cok[i]) == (kernel(h)[0], cokernel(h)[0])


def _holds(h, equations):
    """Whether h satisfies every hom equation (P, Q, target)."""
    for P, Q, target in equations:
        lhs = h if Q is None else h @ Q
        lhs = lhs if P is None else P @ lhs
        if lhs != GroupHom(lhs.domain, lhs.codomain, target):
            return False
    return True


def test_squares_hold_at_the_twist_and_fill_solves_them():
    # the cycle, written out here: map i runs from CYCLE[i] to CYCLE[i + 1]
    cycle = ("K0B", "K0E", "K0A", "K1B", "K1E", "K1A")
    assert [f"{a}->{b}" for a, b in zip(cycle, cycle[1:] + cycle[:1])] == list(MAP_KEYS)
    rng = random.Random(26)
    invs = invariant_corpus(17, 60) + [random_valid_invariant(rng) for _ in range(60)]
    moved = 0
    for inv in invs:
        twin, phi = _twisted(inv, rng)
        moved += any(twin.maps[k] != inv.maps[k] for k in MAP_KEYS)
        for i, node in enumerate(cycle):
            before, after = cycle[i - 1], cycle[(i + 1) % 6]
            for near in ((), (before,), (after,), (before, after)):
                known = {n: phi[n] for n in near}
                equations = kclass.sixterm._squares(inv, twin, node, known)
                assert len(equations) == len(near)
                if near:  # the incoming square, which has a pre-map, comes first
                    assert (equations[0][1] is None) == (near[0] == after)
                assert _holds(phi[node], equations)
                h = kclass.sixterm._fill(inv, twin, node, known)
                assert h is not None and _holds(h, equations)
    assert moved >= 60


def listed_hom_space(A, B):
    """The maps _hom_space builds one by one, as a list; None stays None."""
    homs = kclass.sixterm._hom_space(A, B)
    return None if homs is None else list(homs)


def test_hom_space_matches_bruteforce_in_order():
    groups = [FgAbelianGroup(0, t) for t in
              ((), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 6), (2, 2, 2))]
    checked = 0
    for A, B in itertools.product(groups, repeat=2):
        brute = homs_bruteforce(A, B)
        if len(brute) > 600:
            continue
        assert listed_hom_space(A, B) == brute
        checked += 1
    assert checked >= 60
    # a free generator into a finite group goes anywhere
    assert listed_hom_space(Z, Z3) == [hom(Z, Z3, [[c]]) for c in range(3)]


def test_hom_space_into_z_plus_z2():
    ZZ2 = FgAbelianGroup(1, (2,))
    hom_space = listed_hom_space
    # a free generator can go to any multiple of the free generator
    assert hom_space(Z, ZZ2) is None
    assert hom_space(ZZ2, ZZ2) is None
    # a torsion generator goes to torsion of order dividing its own
    assert hom_space(Z3, ZZ2) == [hom(Z3, ZZ2)]
    assert hom_space(FgAbelianGroup(0, (4,)), ZZ2) == [
        hom(FgAbelianGroup(0, (4,)), ZZ2, [[0], [c]]) for c in range(2)]
    V = FgAbelianGroup(0, (2, 2))
    assert hom_space(V, ZZ2) == [hom(V, ZZ2, [[0, 0], [a, b]])
                                 for a in range(2) for b in range(2)]
    assert hom_space(TRIV, ZZ2) == [hom(TRIV, ZZ2)]


def test_hom_space_past_the_closure_limit_is_none(monkeypatch):
    V = FgAbelianGroup(0, (2, 4))
    # Hom(Z/2 + Z/4, Z/2 + Z/4) has 2 * 2 * 2 * 4 = 32 elements
    assert len(listed_hom_space(V, V)) == 32
    monkeypatch.setattr(kclass.sixterm, "CLOSURE_LIMIT", 32)
    assert len(listed_hom_space(V, V)) == 32
    monkeypatch.setattr(kclass.sixterm, "CLOSURE_LIMIT", 31)
    assert listed_hom_space(V, V) is None
    assert len(listed_hom_space(Z2, V)) == 4


def k1_hexagon(k1b, k1e, k1a, maps):
    """A cycle whose K0 row is trivial, with the given K1 groups and K1
    maps; the other maps are zero."""
    groups = {"K0B": TRIV, "K0E": TRIV, "K0A": TRIV, "K1B": k1b, "K1E": k1e, "K1A": k1a}
    full = {}
    for key in MAP_KEYS:
        src, dst = key.split("->")
        full[key] = maps.get(key) or hom(groups[src], groups[dst])
    cones = {n: unordered_cone() for n in ("K0B", "K0E", "K0A")}
    return SixTermInvariant(groups, full, cones)


def transvection_pair(n):
    """Two isomorphic cycles with K1B = K1E = (Z/2)^n joined by the
    identity against a transvection, so that beta1 is corrected by the
    2^(n*n) maps of Hom((Z/2)^n, (Z/2)^n)."""
    V = FgAbelianGroup(0, (2,) * n)
    mats = ([[int(i == j) for j in range(n)] for i in range(n)],
            [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)])
    return [k1_hexagon(V, V, TRIV, {"K1B->K1E": hom(V, V, m)}) for m in mats]


def crowded_pair(node):
    """Two isomorphic cycles with more than CLOSURE_LIMIT maps correcting
    a solution at ``node``: at K1B, Hom((Z/2)^5, (Z/2)^5) with 2^25 maps
    (the identity against a transvection); at K1A, Hom(Z/10^6, Z/10^6)
    (multiplication by 1 against 3)."""
    if node == "K1B":
        return transvection_pair(5)
    C = FgAbelianGroup(0, (10**6,))
    return [k1_hexagon(TRIV, C, C, {"K1E->K1A": hom(C, C, [[u]])}) for u in (1, 3)]


@pytest.mark.parametrize("node", ["K1B", "K1A"])
def test_node_with_too_many_maps_is_sampled_not_listed(node):
    s, t = crowded_pair(node)
    start = time.perf_counter()
    v = decide_iso_one_ideal(s, t)
    assert time.perf_counter() - start < 2.0
    assert v.status == "isomorphic" and verify_witness(s, t, v.witness)


def test_listed_corrections_are_built_as_the_search_reaches_them(monkeypatch):
    # Hom((Z/2)^4, (Z/2)^4) has 2^16 maps, within CLOSURE_LIMIT, so they
    # correct beta1 as a listed family; the first isomorphism among the
    # corrections comes a few thousand maps in, and none past it is built
    s, t = transvection_pair(4)
    real = kclass.sixterm._hom_space
    built = Counter()

    def count(h):
        built["maps"] += 1
        return h

    def counted(A, B):
        homs = real(A, B)
        return None if homs is None else map(count, homs)
    monkeypatch.setattr(kclass.sixterm, "_hom_space", counted)
    start = time.perf_counter()
    v = decide_iso_one_ideal(s, t)
    assert time.perf_counter() - start < 1.0
    assert v.status == "isomorphic" and verify_witness(s, t, v.witness)
    assert 0 < built["maps"] < 2**13


def test_replay_builds_each_item_once_in_order():
    built = []

    def items():
        for k in range(5):
            built.append(k)
            yield k
    family = kclass.sixterm._Replay(items())
    assert list(itertools.islice(family, 2)) == [0, 1] and built == [0, 1]
    first = iter(family)
    assert next(first) == 0
    # a pass begun later, or run between the steps of another, sees every item
    assert list(family) == [0, 1, 2, 3, 4]
    assert list(first) == [1, 2, 3, 4]
    assert built == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed, k", [(104, 18), (105, 27)])
def test_correction_families_hold_for_every_pass(seed, k):
    # twisted copies whose witness takes a correction that an earlier pass
    # over the same family reached first; a family iterated only once
    # leaves these pairs unknown
    rng = random.Random(seed)
    corpus = invariant_corpus(seed, k + 1)
    twin = [_twisted(inv, rng)[0] for inv in corpus][k]
    v = decide_iso_one_ideal(corpus[k], twin)
    assert v.status == "isomorphic" and verify_witness(corpus[k], twin, v.witness)


def large_unit_group_pair(kind):
    """Two cycles whose decision needs the units of one large Z/d: at
    K0B, K0B = K0E = Z/(2^61 - 1) by the inclusion 1 against 2 with a
    vanishing K1 row; at K1A, K1E = K1A = Z/10^8 by 1 against 3."""
    if kind == "K0B":
        P = FgAbelianGroup(0, (2**61 - 1,))
        groups = {"K0B": P, "K0E": P, "K0A": TRIV, "K1A": TRIV, "K1E": TRIV, "K1B": TRIV}
        zero = {key: hom(groups[key[:3]], groups[key[5:]]) for key in MAP_KEYS}
        cones = {"K0B": all_positive_cone(), "K0E": unordered_cone(),
                 "K0A": all_positive_cone()}
        return [SixTermInvariant(groups, {**zero, "K0B->K0E": hom(P, P, [[k]])}, cones)
                for k in (1, 2)]
    C = FgAbelianGroup(0, (10**8,))
    return [k1_hexagon(TRIV, C, C, {"K1E->K1A": hom(C, C, [[u]])}) for u in (1, 3)]


@pytest.mark.parametrize("kind", ["K0B", "K1A"])
def test_unit_group_past_its_bound_exits_3(capsys, tmp_path, kind):
    paths = []
    for i, inv in enumerate(large_unit_group_pair(kind)):
        paths.append(tmp_path / f"inv{i}.json")
        paths[-1].write_text(json.dumps(inv.to_json()))
    start = time.perf_counter()
    rc = main(["sixterm", "compare", *map(str, paths)])
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert rc == 3 and out == "" and "MAX_UNIT_MODULUS=1000000" in err
