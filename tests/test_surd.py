"""Quadratic irrational arithmetic, continued fractions, Moebius equivalence."""
import random

import pytest

import kclass.surd
from kclass.matrix import IntMatrix
from kclass.surd import (
    QuadraticIrrational,
    cf_expansion,
    convergent_matrix,
    equivalence_witness,
    mobius_apply,
    parse_surd,
    same_field_root,
    sturmian_equivalent,
)
from oracles import cf_value, mobius_equivalent_bruteforce


def surd(a, b, c, d):
    return QuadraticIrrational(a, b, c, d)


GOLDEN_CONJ = surd(-1, 1, 2, 5)  # (sqrt(5)-1)/2


def test_canonicalization():
    # a value keeps the radicand it was written with; equality and hashing
    # do not depend on it
    x = surd(2, 2, 4, 8)  # (2 + 2*sqrt(8))/4 = (1 + 2*sqrt(2))/2
    assert (x.a, x.b, x.c, x.d) == (1, 1, 2, 8)
    assert x == surd(1, 2, 2, 2) and hash(x) == hash(surd(1, 2, 2, 2))
    assert x != surd(1, -2, 2, 2) and x != surd(1, 2, 2, 3)
    y = surd(1, 1, -2, 5)
    assert (y.a, y.b, y.c, y.d) == (-1, -1, 2, 5)
    assert surd(1, 1, 2, 20) == surd(1, 2, 2, 5)   # sqrt(20) = 2*sqrt(5)
    assert hash(surd(1, 1, 2, 20)) == hash(surd(1, 2, 2, 5))
    z = surd(3, 2, 1, 9)  # sqrt(9) collapses: 3 + 6 = 9
    assert z.is_rational and (z.a, z.c, z.d) == (9, 1, 1) and z == 9


def test_same_field_root():
    assert same_field_root(8, 2) == 4 and same_field_root(20, 5) == 10
    assert same_field_root(7, 7) == 7
    assert same_field_root(2, 3) is None and same_field_root(8, 12) is None
    # 1000250012300171 = 100003**2 * 100019: one field, no factoring
    assert same_field_root(1000250012300171, 100019) == 100003 * 100019


def test_arithmetic_across_radicands():
    r8, r2 = surd(0, 1, 1, 8), surd(0, 1, 1, 2)
    assert r8 + r2 == surd(0, 3, 1, 2)
    assert r8 * r2 == 4 and (r8 * r2).is_rational
    assert r2 * r8 == 4
    assert r8 * r8.reciprocal() == 1
    assert (r8 + r2 * -2).sign() == 0
    with pytest.raises(ValueError, match="different quadratic fields"):
        r8 * surd(0, 1, 1, 12)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        surd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        surd(1, 1, 2, 0)


def test_arithmetic_and_sign():
    x = GOLDEN_CONJ
    assert (x + x) == surd(-1, 1, 1, 5)
    assert (x + x * -1).sign() == 0
    assert (x * x) == surd(3, -1, 2, 5)  # x^2 = x... no: ((sqrt5-1)/2)^2 = (3-sqrt5)/2
    assert (x * -1).sign() == -1
    assert x.sign() == 1
    assert x.reciprocal() == surd(1, 1, 2, 5)
    assert (x.reciprocal() * x) == 1
    with pytest.raises(ValueError):
        x + surd(0, 1, 1, 2)


def test_floor_values():
    # the first continued-fraction digit is the floor; a negative b puts
    # the (P, Q) recurrence on its Q < 0 branch
    def first_digit(x):
        pre, per = cf_expansion(x)
        return (pre + per)[0]
    assert first_digit(GOLDEN_CONJ) == 0
    assert first_digit(surd(0, 1, 1, 2)) == 1
    assert first_digit(surd(0, -1, 1, 2)) == -2
    assert first_digit(surd(3, -1, 2, 5)) == 0
    assert first_digit(surd(5, 2, 1, 7)) == 10  # 5 + 2*2.6457...
    assert first_digit(surd(-7, 3, 2, 2)) == -2  # (-7+4.24..)/2


def test_parse_and_format_round_trip():
    for text, expect in [
        ("(-1+1*sqrt(5))/2", GOLDEN_CONJ),
        ("(3-1*sqrt(5))/2", surd(3, -1, 2, 5)),
        ("(0+1*sqrt(2))/1", surd(0, 1, 1, 2)),
        ("sqrt(7)", surd(0, 1, 1, 7)),
        ("-sqrt(7)", surd(0, -1, 1, 7)),
        ("2*sqrt(3)", surd(0, 2, 1, 3)),
        ("1+2*sqrt(3)", surd(1, 2, 1, 3)),
        ("(1+1*sqrt(8))/2", surd(1, 2, 2, 2)),
    ]:
        assert parse_surd(text) == expect
    assert parse_surd(str(GOLDEN_CONJ)) == GOLDEN_CONJ


def test_parse_rejects_garbage_and_rationals():
    for bad in ["", "5", "5/3", "sqrt(4)", "(1+2*sqrt(9))/3", "one+sqrt(2)", "(1+sqrt(2)"]:
        with pytest.raises(ValueError):
            parse_surd(bad)


def test_cf_expansion_worked_examples():
    assert cf_expansion(surd(-1, 1, 1, 2)) == ([0], [2])      # sqrt(2) - 1
    assert cf_expansion(GOLDEN_CONJ) == ([0], [1])            # (sqrt(5)-1)/2
    assert cf_expansion(surd(-2, 1, 1, 5)) == ([0], [4])      # sqrt(5) - 2
    assert cf_expansion(surd(0, 1, 1, 7)) == ([2], [1, 1, 1, 4])
    assert cf_expansion(surd(0, 2, 1, 7)) == ([5], [3, 2, 3, 10])
    assert cf_expansion(surd(3, -1, 2, 5)) == ([0, 2], [1])


def test_cf_rejects_rational():
    with pytest.raises(ValueError):
        cf_expansion(QuadraticIrrational(3, 0, 2))


SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 101, 211, 389, 501, 646, 749, 887, 998]
# with these and with negative denominators, Q often does not divide
# D - P*P at the start, and cf_expansion must rescale (P, Q, D)
NOT_SQUAREFREE = [8, 12, 18, 50]


def test_cf_round_trip_reconstruction():
    rng = random.Random(11)
    for _ in range(80):
        d = rng.choice(SQUAREFREE + NOT_SQUAREFREE)
        x = surd(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]),
                 rng.choice([-1, 1]) * rng.randint(1, 9), d)
        pre, per = cf_expansion(x)
        assert per, "period must be nonempty"
        assert cf_value(pre, per) == x


def test_convergent_matrix_composition():
    pre, per = cf_expansion(surd(0, 1, 1, 7))
    G = convergent_matrix(pre + per)
    assert G.det() in (1, -1)


def test_sturmian_worked_examples():
    assert sturmian_equivalent(GOLDEN_CONJ, surd(3, -1, 2, 5)) is True
    assert sturmian_equivalent(GOLDEN_CONJ, surd(-2, 1, 1, 5)) is False
    assert sturmian_equivalent(GOLDEN_CONJ, GOLDEN_CONJ) is True
    assert sturmian_equivalent(surd(0, 1, 1, 7), surd(0, 2, 1, 7)) is False
    assert sturmian_equivalent(surd(0, 1, 1, 2), surd(0, 1, 1, 3)) is False


def test_witness_on_equivalent_pair():
    M = equivalence_witness(GOLDEN_CONJ, surd(3, -1, 2, 5))
    assert M is not None
    assert mobius_apply(M, GOLDEN_CONJ) == surd(3, -1, 2, 5)
    assert M.det() in (1, -1)
    assert equivalence_witness(GOLDEN_CONJ, surd(-2, 1, 1, 5)) is None


def test_mobius_image_is_equivalent():
    rng = random.Random(23)
    mats = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]]),
            IntMatrix([[0, 1], [1, 0]]), IntMatrix([[2, 1], [1, 1]])]
    for _ in range(15):
        d = rng.choice([2, 3, 5, 7, 13])
        x = surd(rng.randint(-5, 5), rng.choice([1, 2]), rng.randint(1, 5), d)
        M = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 3)):
            M = M @ rng.choice(mats)
        y = mobius_apply(M, x)
        assert sturmian_equivalent(x, y) is True
        W = equivalence_witness(x, y)
        assert W is not None and mobius_apply(W, x) == y


def oracle_pairs():
    rng = random.Random(41)
    pairs = []
    small = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]]),
             IntMatrix([[0, 1], [1, 0]])]
    for i in range(20):
        d = [2, 3, 5, 7, 13][i % 5]
        x = surd(rng.randint(-4, 4), rng.choice([1, 2]), rng.randint(1, 4), d)
        if i % 2 == 0:
            M = small[i % 3] @ small[(i + 1) % 3]
            pairs.append((x, mobius_apply(M, x)))
        else:
            y = surd(rng.randint(-4, 4), rng.choice([1, 3]), rng.randint(1, 4),
                     [2, 3, 5, 7, 13][(i + 1 + (i // 5)) % 5])
            pairs.append((x, y))
    return pairs


# one field written over two radicands
CROSS_RADICAND_PAIRS = [
    (surd(1, 1, 2, 20), surd(1, 1, 1, 5)),    # (1+sqrt(20))/2 against 1+sqrt(5)
    (surd(0, 1, 1, 8), surd(0, 2, 1, 2)),     # sqrt(8) against 2*sqrt(2)
    (surd(1, 1, 2, 20), surd(3, 2, 2, 5)),    # x against x + 1 over sqrt(5)
]


def test_agreement_with_bruteforce_oracle():
    for x, y in oracle_pairs() + CROSS_RADICAND_PAIRS:
        claimed = sturmian_equivalent(x, y)
        witness = mobius_equivalent_bruteforce(x, y)
        assert claimed == (witness is not None), (str(x), str(y))
    assert [sturmian_equivalent(x, y) for x, y in CROSS_RADICAND_PAIRS] == [False, True, True]


def test_cf_step_budget_raises_value_error(monkeypatch):
    root46 = surd(0, 1, 1, 46)   # preperiod [6], period of length 12
    monkeypatch.setattr(kclass.surd, "CF_STEPS", 13)
    with pytest.raises(ValueError, match="CF_STEPS=13"):
        cf_expansion(root46)
    monkeypatch.setattr(kclass.surd, "CF_STEPS", 14)
    assert len(cf_expansion(root46)[1]) == 12
