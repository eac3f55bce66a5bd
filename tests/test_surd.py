"""Quadratic irrational arithmetic, continued fractions, Moebius equivalence."""
import random

import pytest

from kclass.matrix import IntMatrix
from kclass.surd import (
    QuadraticIrrational,
    _squarefree_decompose,
    cf_expansion,
    convergent_matrix,
    equivalence_witness,
    mobius_apply,
    parse_surd,
    sturmian_equivalent,
)
from oracles import cf_value, mobius_equivalent_bruteforce, squarefree_decompose_bruteforce


def surd(a, b, c, d):
    return QuadraticIrrational(a, b, c, d)


GOLDEN_CONJ = surd(-1, 1, 2, 5)  # (sqrt(5)-1)/2


def test_canonicalization():
    x = surd(2, 2, 4, 8)  # (2 + 2*sqrt(8))/4 = (1 + 2*sqrt(2))/2
    assert (x.a, x.b, x.c, x.d) == (1, 2, 2, 2)
    y = surd(1, 1, -2, 5)
    assert (y.a, y.b, y.c, y.d) == (-1, -1, 2, 5)
    z = surd(3, 2, 1, 9)  # sqrt(9) collapses: 3 + 6 = 9
    assert z.is_rational and (z.a, z.c) == (9, 1)


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


def test_agreement_with_bruteforce_oracle():
    for x, y in oracle_pairs():
        claimed = sturmian_equivalent(x, y)
        witness = mobius_equivalent_bruteforce(x, y)
        assert claimed == (witness is not None), (str(x), str(y))


def test_squarefree_part_matches_bruteforce_oracle():
    for d in range(1, 10 ** 4 + 1):
        assert _squarefree_decompose(d) == squarefree_decompose_bruteforce(d)
    p, q = 100003, 100019   # the two smallest primes above the trial bound
    assert _squarefree_decompose(p * q) == squarefree_decompose_bruteforce(p * q)
    assert _squarefree_decompose(p * p) == (p, 1)
    assert _squarefree_decompose(p * p * q * q) == (p * q, 1)
    # p*p*q passes 10**15 with no prime factor up to the bound: taking it
    # as squarefree would be wrong, so it is refused
    assert squarefree_decompose_bruteforce(p * p * q) == (p, q)
    with pytest.raises(ValueError, match="unsupported radicand"):
        _squarefree_decompose(p * p * q)
    with pytest.raises(ValueError, match="unsupported radicand"):
        parse_surd(f"sqrt({p * p * q})")
    assert parse_surd(f"{p}*sqrt({q})") == surd(0, p, 1, q)


def test_cf_step_budget_raises_value_error():
    root46 = surd(0, 1, 1, 46)   # preperiod [6], period of length 12
    with pytest.raises(ValueError, match="max_steps=13"):
        cf_expansion(root46, max_steps=13)
    assert len(cf_expansion(root46, max_steps=14)[1]) == 12
