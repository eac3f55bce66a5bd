"""Acceptance suite: the worked classifications and the core guarantees.

Each test pins one top-level requirement: the two worked comparison
families, oracle agreement for the Sturmian decision, exactness of every
generated graph invariant, the Smith form and Ext contracts, and the
hygiene of the isomorphism decision procedure.  Timing bounds are part
of the requirements and are asserted, not logged.
"""
import hashlib
import json
import random
import time
from math import gcd

from oracles import (cyclic_quotient_order, det_bareiss, minor_gcd,
                     mobius_equivalent_bruteforce)
from sampling import invariant_corpus, random_one_ideal_graph

from kclass.cli import main
from kclass.dimgroup import SubstitutionInvariant, compare_substitution_invariants
from kclass.ext import ext1
from kclass.graphalg import (DirectedGraph, hereditary_saturated_sets,
                             one_ideal_invariant)
from kclass.groups import FgAbelianGroup, GroupHom
from kclass.matrix import IntMatrix, snf
from kclass.sixterm import (SixTermInvariant, all_positive_cone, decide_iso_one_ideal,
                            standard_free_cone, unordered_cone, validate_sixterm,
                            verify_witness)
from kclass.surd import QuadraticIrrational, mobius_apply, sturmian_equivalent

Z = FgAbelianGroup(1, ())
Z3 = FgAbelianGroup(0, (3,))
TRIV = FgAbelianGroup(0, ())


def hom(dom, cod, rows=None):
    mat = IntMatrix(rows) if rows else IntMatrix.zeros(cod.ngens, dom.ngens)
    return GroupHom(dom, cod, mat)


def cyclic_extension(mid, iota_rows, pi_rows):
    """Hexagon with vanishing K1 row around 0 -> Z -> mid -> Z/3 -> 0."""
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
    cones = {"K0B": standard_free_cone(), "K0E": unordered_cone(),
             "K0A": all_positive_cone()}
    return SixTermInvariant(groups, maps, cones)


def test_worked_extension_trio_through_cli(capsys, tmp_path):
    """Three extensions of Z/3 by Z: multiplication by 3 with quotient
    generator 1, the same with generator 2, and the split extension.
    The first two are isomorphic, the split one differs from both."""
    trio = [
        cyclic_extension(Z, [[3]], [[1]]),
        cyclic_extension(Z, [[3]], [[2]]),
        cyclic_extension(FgAbelianGroup(1, (3,)), [[1], [0]], [[0, 1]]),
    ]
    files = []
    for i, inv in enumerate(trio):
        assert validate_sixterm(inv) == []
        path = tmp_path / f"seq{i + 1}.json"
        path.write_text(json.dumps(inv.to_json()))
        files.append(str(path))

    start = time.monotonic()
    verdicts = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        rc = main(["sixterm", "compare", files[i], files[j]])
        out = capsys.readouterr().out
        assert rc == 0
        verdicts[(i, j)] = json.loads(out)["verdict"]
    elapsed = time.monotonic() - start

    assert verdicts[(0, 1)] == "isomorphic"
    assert verdicts[(0, 2)] == "not_isomorphic"
    assert verdicts[(1, 2)] == "not_isomorphic"
    assert elapsed < 1.0


def stationary_invariant(F, A, p):
    n, m = len(p), A.rows
    rows = [[1 if j == i else 0 for j in range(n)] + list(F[i]) for i in range(n)]
    rows += [[0] * n + [A[i, j] for j in range(m)] for i in range(m)]
    return SubstitutionInvariant(n, p, A, IntMatrix(rows))


def test_stationary_reduction_pair():
    """Two substitution invariants over the stationary group of
    [[5,3],[3,2]] compare isomorphic; perturbing one matrix entry breaks
    the Perron class."""
    fib4 = IntMatrix([[5, 3], [3, 2]])
    i1 = stationary_invariant([[1, 1]], fib4, (0,))
    i2 = stationary_invariant([[2, 3]], fib4, (0,))
    start = time.monotonic()
    v = compare_substitution_invariants(i1, i2)
    assert v.status == "isomorphic"
    i3 = stationary_invariant([[1, 1]], IntMatrix([[5, 3], [3, 3]]), (0,))
    v = compare_substitution_invariants(i1, i3)
    assert v.status == "not_isomorphic"
    assert time.monotonic() - start < 1.0


def test_sturmian_agrees_with_moebius_oracle():
    """Twenty quadratic irrational pairs, four per discriminant: two
    built by small unimodular substitutions (equivalent by construction),
    one same-field pair, one cross-field pair."""
    ds = [2, 3, 5, 7, 13]
    shift = IntMatrix([[1, 1], [0, 1]])
    mix = IntMatrix([[2, 1], [1, 1]])
    pairs = []
    for i, d in enumerate(ds):
        root = QuadraticIrrational(0, 1, 1, d)
        half = QuadraticIrrational(1, 1, 2, d)
        other = QuadraticIrrational(0, 1, 1, ds[(i + 1) % len(ds)])
        pairs.append((root, mobius_apply(shift, root), True))
        pairs.append((half, mobius_apply(mix, half), True))
        pairs.append((root, half, None))
        pairs.append((root, other, False))
    assert len(pairs) == 20

    start = time.monotonic()
    seen = {True: 0, False: 0}
    for x, y, expected in pairs:
        fast = sturmian_equivalent(x, y)
        slow = mobius_equivalent_bruteforce(x, y) is not None
        assert fast == slow
        if expected is not None:
            assert fast == expected
        seen[fast] += 1
    elapsed = time.monotonic() - start
    assert seen[True] >= 10 and seen[False] >= 5
    assert elapsed < 5.0


def test_random_one_ideal_invariants_are_exact():
    """Every generated one-ideal graph yields an exact six-term cycle."""
    rng = random.Random(11)
    start = time.monotonic()
    for _ in range(200):
        g = random_one_ideal_graph(rng)
        assert g.n <= 6
        proper = [d for d in hereditary_saturated_sets(g) if d.nontrivial]
        assert len(proper) == 1
        inv = one_ideal_invariant(g)
        assert validate_sixterm(inv) == []
    assert time.monotonic() - start < 30.0


def test_twenty_vertex_ideal_lattices_are_fast():
    """The ideal lattice costs what it holds, not 2^n: a looped chain on
    20 vertices has 21 hereditary saturated sets, and a 20-vertex graph
    with one proper ideal yields its exact six-term invariant."""
    n = 20
    labels = [f"v{i}" for i in range(n)]
    chain = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    # two 10-cycles with exits, the second feeding the first
    two_cycles = [[0] * n for _ in range(n)]
    for i in range(10):
        two_cycles[i][(i + 1) % 10] = 1
        two_cycles[10 + i][10 + (i + 1) % 10] = 1
    two_cycles[0][0] = 3
    two_cycles[10][10] = 2
    two_cycles[12][3] = 2
    two_cycles[15][5] = 1

    start = time.monotonic()
    sets = hereditary_saturated_sets(DirectedGraph(labels, chain))
    assert [d.vertices for d in sets] == [()] + [tuple(labels[k:]) for k in
                                                 range(n - 1, -1, -1)]
    inv = one_ideal_invariant(DirectedGraph(labels, two_cycles))
    assert validate_sixterm(inv) == []
    assert inv.groups["K0B"] == FgAbelianGroup(0, (3,))
    assert inv.groups["K0E"] == FgAbelianGroup(0, (6,))
    assert inv.groups["K0A"] == FgAbelianGroup(0, (2,))
    assert time.monotonic() - start < 1.0


def test_smith_form_and_ext_contracts():
    """Smith form on random matrices up to 5x5 checked against minor
    gcds, then Ext of cyclic groups against the quotient oracle."""
    rng = random.Random(7)
    start = time.monotonic()
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        dec = snf(M)
        assert dec.U @ M @ dec.V == dec.D
        assert abs(det_bareiss(dec.U.to_lists())) == 1
        assert abs(det_bareiss(dec.V.to_lists())) == 1
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        prod = 1
        for k in range(1, min(rows, cols) + 1):
            prod *= diag[k - 1]
            assert prod == minor_gcd(M.to_lists(), k)

    for m in range(1, 13):
        for n in range(1, 13):
            src = TRIV if m == 1 else FgAbelianGroup(0, (m,))
            tgt = TRIV if n == 1 else FgAbelianGroup(0, (n,))
            order = ext1(src, tgt).group.order()
            assert order == gcd(m, n)
            if n > 1:
                assert order == cyclic_quotient_order(n, m)
    assert time.monotonic() - start < 10.0


# SHA-256 of one "i<TAB>j<TAB>status<TAB>certificate or reason" line per
# forward decision i < j on invariant_corpus(5, 100); a refactor that
# changes any verdict, certificate or reason changes it.
GOLDEN_CORPUS_DIGEST = "d18ddc20327315892b663723c4758cb8ceb1e999784a9467311d144e4b5d5025"


def test_decision_procedure_hygiene():
    """Reflexive and symmetric on a random corpus, witnesses always
    verify, all-finite inputs never come back unknown, and the forward
    decisions match the golden digest."""
    corpus = invariant_corpus(5, 100)
    assert len(corpus) == 100
    finite = [all(inv.groups[n].is_finite() for n in inv.groups)
              for inv in corpus]
    assert sum(finite) >= 20

    for inv in corpus:
        v = decide_iso_one_ideal(inv, inv)
        assert v.status == "isomorphic"
        assert verify_witness(inv, inv, v.witness)

    counts = {"isomorphic": 0, "not_isomorphic": 0, "unknown": 0}
    digest = hashlib.sha256()
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            fwd = decide_iso_one_ideal(corpus[i], corpus[j])
            bwd = decide_iso_one_ideal(corpus[j], corpus[i])
            assert fwd.status == bwd.status
            counts[fwd.status] += 1
            text = fwd.certificate or fwd.reason or ""
            digest.update(f"{i}\t{j}\t{fwd.status}\t{text}\n".encode())
            if fwd.status == "isomorphic":
                assert verify_witness(corpus[i], corpus[j], fwd.witness)
                assert verify_witness(corpus[j], corpus[i], bwd.witness)
            if finite[i] and finite[j]:
                assert fwd.status != "unknown"
    assert counts["isomorphic"] > 0
    assert counts["not_isomorphic"] > 0
    assert digest.hexdigest() == GOLDEN_CORPUS_DIGEST
