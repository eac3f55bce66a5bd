import random
from itertools import combinations
from math import gcd

import pytest

from kclass.matrix import (
    IntMatrix,
    kernel_basis,
    kron,
    preimage_lattice,
    snf,
    solve,
    unimodular_inverse,
)


def minor_gcd(M, k):
    """gcd of all k x k minors, used as an independent oracle for the SNF."""
    g = 0
    for ri in combinations(range(M.rows), k):
        for ci in combinations(range(M.cols), k):
            g = gcd(g, IntMatrix([[M[i, j] for j in ci] for i in ri]).det())
    return g


def check_decomposition(M):
    dec = snf(M)
    assert dec.U @ M @ dec.V == dec.D
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1
    diag = dec.diagonal()
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert dec.D[i, j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return dec


def test_snf_worked_example():
    dec = check_decomposition(IntMatrix([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)


def test_snf_identity_and_zero():
    assert snf(IntMatrix.identity(3)).diagonal() == (1, 1, 1)
    assert snf(IntMatrix.zeros(2, 3)).diagonal() == (0, 0)


def test_snf_rectangular():
    dec = check_decomposition(IntMatrix([[2, 0, 0], [0, 3, 0]]))
    assert dec.diagonal() == (1, 6)


def test_snf_empty_shapes():
    check_decomposition(IntMatrix([], cols=3))
    check_decomposition(IntMatrix([[], [], []], cols=0))
    check_decomposition(IntMatrix([], cols=0))


def test_snf_random_matrices_match_minor_gcd_oracle():
    rng = random.Random(20240817)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = check_decomposition(M)
        diag = dec.diagonal()
        # product of the first k invariant factors equals the gcd of k x k minors
        prod = 1
        for k in range(1, min(m, n) + 1):
            prod *= diag[k - 1]
            assert prod == minor_gcd(M, k)


def test_kron_turns_two_sided_products_into_one_matrix():
    # A X B flattened row by row is (A (x) B^T) applied to X flattened row by row
    rng = random.Random(5)
    for _ in range(30):
        m, n, p, q = (rng.randrange(4) for _ in range(4))
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        X = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(n)]
        B = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(p)]
        Bm = IntMatrix(B, cols=q)
        AXB = IntMatrix(A, cols=n) @ IntMatrix(X, cols=p) @ Bm
        K = IntMatrix(kron(A, [Bm.column(j) for j in range(q)]), cols=n * p)
        assert list(K.apply([x for row in X for x in row])) == [x for row in AXB.data for x in row]
    assert kron([[1, 2]], [[0, 1], [1, 0]]) == [[0, 1, 0, 2], [1, 0, 2, 0]]


def test_unimodular_inverse():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        # random unimodular: product of elementary transvections and swaps
        M = IntMatrix.identity(n).to_lists()
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for c in range(n):
                M[i][c] += q * M[j][c]
        M = IntMatrix(M, cols=n)
        inv = unimodular_inverse(M)
        assert M @ inv == IntMatrix.identity(n)
        assert inv @ M == IntMatrix.identity(n)


def test_kernel_and_solve():
    M = IntMatrix([[0, 1], [1, -1]])
    assert kernel_basis(M) == []
    K = IntMatrix([[1, 2, 3]])
    basis = kernel_basis(K)
    assert len(basis) == 2
    for v in basis:
        assert K.apply(v) == (0,)
    assert solve(IntMatrix([[2]]), [3]) is None
    x = solve(IntMatrix([[2, 3]]), [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1


def test_membership():
    M = IntMatrix([[2, 0], [0, 4]])
    assert solve(M, (2, 4)) is not None
    assert solve(M, (1, 0)) is None


def test_preimage_lattice():
    # {v : 2v in 4Z} = 2Z
    span = preimage_lattice(IntMatrix([[2]]), IntMatrix([[4]]))
    B = IntMatrix.from_columns(span, rows=1)
    assert solve(B, (2,)) is not None
    assert solve(B, (1,)) is None


def test_random_solve_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = M.apply(x)
        got = solve(M, b)
        assert got is not None
        assert M.apply(got) == b


def test_constructor_rejects_ragged_rows_and_a_wrong_width():
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="cols does not match"):
        IntMatrix([[1, 2]], cols=3)
    assert IntMatrix([[1, 2]], cols=2).cols == 2


def test_constructor_keeps_explicit_cols_on_zero_rows():
    M = IntMatrix([], cols=4)
    assert (M.rows, M.cols, M.data) == (0, 4, ())
    assert IntMatrix([]).cols == 0
    assert IntMatrix.zeros(0, 3).cols == 3


def test_matrix_is_immutable():
    M = IntMatrix([[1]])
    for name in ("rows", "cols", "data", "other"):
        with pytest.raises(AttributeError):
            setattr(M, name, 0)
    assert M.data == ((1,),)


@pytest.mark.parametrize("entry", [True, False, 1.0, 1.5, "1"])
def test_constructor_takes_exact_integers_only(entry):
    # entries are never coerced: 1.5 is not read as 1, nor True as 1
    with pytest.raises(TypeError, match="matrix entries must be integers"):
        IntMatrix([[1, 2], [3, entry]])
    with pytest.raises(TypeError):
        IntMatrix([[entry]])


def test_hstack_with_no_columns_on_the_right_shares_the_left():
    M = IntMatrix([[1, 2], [3, 4]])
    assert IntMatrix.hstack(M, IntMatrix.zeros(M.rows, 0)) is M
    with pytest.raises(ValueError, match="row counts differ"):
        IntMatrix.hstack(M, IntMatrix.zeros(3, 0))
