"""Stationary dimension groups, exact positivity, and substitution invariants.

The group attached to a square integer matrix A is the inductive limit
of Z^n along repeated multiplication by A.  Elements are pairs
(stage, vector) with (k, v) identified with (k+1, A v).  When A is
nonnegative the limit carries an order; positivity of an element is an
eventual coordinatewise sign, decided exactly for primitive 2x2
matrices through the left Perron eigenvector in its quadratic field.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import IntMatrix, unimodular_inverse
from .surd import (
    QuadraticIrrational,
    cf_expansion,
    convergent_matrix,
    equivalence_witness,
    mobius_apply,
    same_field_root,
)
from . import verdict as V

# Candidate letters tried by the letter-permutation search of
# compare_substitution_invariants before it gives up.
CONJUGACY_BUDGET = 10**5


@dataclass(frozen=True)
class StationaryDimensionGroup:
    """lim(Z^n -> Z^n -> ...) along a fixed square integer matrix."""

    matrix: IntMatrix
    # derived from the matrix, so left out of equality and hashing
    n: int = field(init=False, compare=False)
    ordered: bool = field(init=False, compare=False)

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("stationary dimension group needs a square matrix")
        object.__setattr__(self, "n", self.matrix.rows)
        object.__setattr__(self, "ordered", self.matrix.is_nonnegative())

    def is_primitive(self) -> bool:
        """Some power strictly positive; Wielandt's exponent bound."""
        if not self.ordered:
            return False
        e = (self.n - 1) ** 2 + 1
        P = self.matrix.power(e)
        return all(P[i, j] > 0 for i in range(self.n) for j in range(self.n))

    def determinant(self) -> int:
        return self.matrix.det()

    def is_finitely_generated(self) -> bool | None:
        """True for |det| = 1, False for |det| >= 2, None for det = 0.

        With det nonzero the limit is the increasing union of the
        lattices A^-k Z^n inside Q^n; the index jumps by |det| at each
        step, so the union is finitely generated exactly when |det| = 1.
        """
        d = abs(self.determinant())
        if d == 1:
            return True
        if d >= 2:
            return False
        return None


def perron_slope(G: StationaryDimensionGroup) -> QuadraticIrrational:
    """omega with (1, omega) the left Perron eigenvector of a primitive 2x2 matrix.

    Raises when the eigenvalue is rational (square discriminant), which
    lies outside the exact rank-2 engine.
    """
    if G.n != 2:
        raise ValueError("Perron slope is a 2x2 device")
    if not G.is_primitive():
        raise ValueError("Perron slope needs a primitive matrix")
    a11, a12 = G.matrix[0, 0], G.matrix[0, 1]
    a21, a22 = G.matrix[1, 0], G.matrix[1, 1]
    disc = (a11 - a22) * (a11 - a22) + 4 * a12 * a21
    w = QuadraticIrrational(a22 - a11, 1, 2 * a21, disc)
    if w.is_rational:
        raise ValueError("rational Perron eigenvalue")
    return w


def is_positive_slope_map(G1: StationaryDimensionGroup, G2: StationaryDimensionGroup,
                          H: IntMatrix) -> bool:
    """Whether H carries the cone of G1 onto the cone of G2.

    The cone of a primitive 2x2 group with irrational slope omega is the
    open half plane v0 + omega v1 > 0, so H is an order isomorphism iff
    (1, omega2) H = lam (1, omega1) with lam > 0 and H unimodular.
    """
    if H.rows != 2 or H.cols != 2 or H.det() not in (1, -1):
        return False
    w1, w2 = perron_slope(G1), perron_slope(G2)
    if same_field_root(w1.d, w2.d) is None:
        return False
    u = w2 * H[1, 0] + H[0, 0]
    v = w2 * H[1, 1] + H[0, 1]
    return u.sign() > 0 and v == u * w1


def _slope_map(W: IntMatrix, w: QuadraticIrrational) -> IntMatrix:
    """H = W transposed about its antidiagonal, signed so (1, w) H = lam (1, W(w)), lam > 0."""
    H = IntMatrix([[W[1, 1], W[0, 1]], [W[1, 0], W[0, 0]]])
    if (w * H[1, 0] + H[0, 0]).sign() < 0:
        H = -H
    return H


def order_iso_base(G1: StationaryDimensionGroup, G2: StationaryDimensionGroup) -> IntMatrix | None:
    """One order isomorphism (Z^2, cone of G1) -> (Z^2, cone of G2), or None."""
    w1, w2 = perron_slope(G1), perron_slope(G2)
    W = equivalence_witness(w2, w1)
    if W is None:
        return None
    H = _slope_map(W, w2)
    assert is_positive_slope_map(G1, G2, H)
    return H


def cone_stabilizer_generator(G: StationaryDimensionGroup) -> IntMatrix:
    """Generator of the order-automorphism group of a rank-2 stationary group.

    The stabilizer of the slope in the integral Moebius group is the
    cyclic group on the minimal-period convergent matrix, conjugated by
    the preperiod; the sign is fixed to make the eigenvalue positive.
    """
    w = perron_slope(G)
    pre, per = cf_expansion(w)
    C = convergent_matrix(pre)
    W = C @ convergent_matrix(per) @ unimodular_inverse(C)
    assert mobius_apply(W, w) == w
    U = _slope_map(W, w)
    assert is_positive_slope_map(G, G, U)
    return U


@dataclass(frozen=True)
class SubstitutionInvariant:
    """The finite comparison data (n, p, A, A~) of a substitution system.

    A~ must be block triangular: the first n coordinates are the special
    block, the lower-left block is zero, and the lower-right block
    equals A.  A itself is nonnegative.
    """

    __slots__ = ("n", "p", "A", "A_tilde")  # a batch keeps every invariant it loads
    n: int
    p: tuple[int, ...]
    A: IntMatrix
    A_tilde: IntMatrix

    def __post_init__(self):
        n, A, A_tilde = self.n, self.A, self.A_tilde
        if n < 1:
            raise ValueError("need at least one distinguished generator")
        p = tuple(self.p)
        if len(p) != n:
            raise ValueError("distinguished vector length differs from n")
        if A.rows != A.cols or A.rows < 1:
            raise ValueError("A must be square and nonempty")
        if not A.is_nonnegative():
            raise ValueError("A must be nonnegative")
        m = A.rows
        if A_tilde.rows != A_tilde.cols or A_tilde.rows != n + m:
            raise ValueError("A~ must be square of size n + |alphabet|")
        for i in range(n, n + m):
            for j in range(n):
                if A_tilde[i, j] != 0:
                    raise ValueError("lower-left block of A~ must vanish")
        for i in range(m):
            for j in range(m):
                if A_tilde[n + i, n + j] != A[i, j]:
                    raise ValueError("lower-right block of A~ must equal A")
        object.__setattr__(self, "p", p)

    @property
    def alphabet_size(self) -> int:
        return self.A.rows

    def to_json(self) -> dict:
        return {"n": self.n, "p": list(self.p), "A": self.A.to_lists(),
                "A_tilde": self.A_tilde.to_lists()}

    @classmethod
    def from_json(cls, data: dict) -> "SubstitutionInvariant":
        try:
            n = data["n"]
            p = data["p"]
            A = IntMatrix(data["A"])
            At = IntMatrix(data["A_tilde"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed substitution invariant: {exc}") from exc
        if type(n) is not int or not all(type(x) is int for x in p):
            raise ValueError("n and p must be integers")
        return cls(n, p, A, At)


def _matching_permutation(p1, p2) -> list[int] | None:
    """sigma with p2[sigma[i]] = p1[i], or None."""
    if sorted(p1) != sorted(p2):
        return None
    slots: dict[int, list[int]] = {}
    for j, val in enumerate(p2):
        slots.setdefault(val, []).append(j)
    sigma = []
    for val in p1:
        sigma.append(slots[val].pop(0))
    return sigma


def _refined_colours(rows1, rows2) -> tuple[list[int], list[int]]:
    """Stable colours of the letters of two square matrices, refined together.

    A letter starts coloured by its diagonal entry; each round recolours
    it by its old colour and the sorted (entry, colour) multisets of its
    row and of its column, until no class splits.  Colours are ranks of
    signatures shared by both matrices, so a letter permutation
    conjugating one matrix into the other preserves them.
    """
    mats = (rows1, rows2)
    colours = [[rows[i][i] for i in range(len(rows))] for rows in mats]
    classes = len(set(colours[0] + colours[1]))
    while True:
        sigs = [[(col[i],
                  tuple(sorted(zip(rows[i], col))),
                  tuple(sorted((rows[k][i], col[k]) for k in range(len(rows)))))
                 for i in range(len(rows))]
                for rows, col in zip(mats, colours)]
        rank = {sig: c for c, sig in enumerate(sorted(set(sigs[0] + sigs[1])))}
        colours = [[rank[sig] for sig in side] for side in sigs]
        if len(rank) == classes:
            return colours[0], colours[1]
        classes = len(rank)


def _conjugating_permutation(rows1, rows2) -> tuple[list[int] | None, bool]:
    """The lexicographically first perm with rows2[perm[i]][perm[k]] == rows1[i][k]
    for all i, k, with a completeness flag.

    Letters are assigned in order, each to an unused letter of its colour
    class (see _refined_colours) agreeing with every assignment so far.
    (None, True) means no such permutation exists; (None, False) means
    CONJUGACY_BUDGET candidates were tried without an answer.
    """
    colours1, colours2 = _refined_colours(rows1, rows2)
    if sorted(colours1) != sorted(colours2):
        return None, True
    cells: dict[int, list[int]] = {}
    for j, c in enumerate(colours2):
        cells.setdefault(c, []).append(j)
    m = len(rows1)
    perm: list[int] = []
    used = [False] * m
    tried = [0] * m  # candidates of position i's cell already tried
    steps = 0
    while len(perm) < m:
        i = len(perm)
        cell = cells[colours1[i]]
        while tried[i] < len(cell):
            j = cell[tried[i]]
            tried[i] += 1
            if used[j]:
                continue
            steps += 1
            if steps > CONJUGACY_BUDGET:
                return None, False
            row1, row2 = rows1[i], rows2[j]
            if all(row2[perm[k]] == row1[k] and rows2[perm[k]][j] == rows1[k][i]
                   for k in range(i)):
                perm.append(j)
                used[j] = True
                break
        else:
            if not perm:
                return None, True
            tried[i] = 0
            used[perm.pop()] = False
    return perm, True


def _permutation_matrix(sigma: list[int]) -> IntMatrix:
    n = len(sigma)
    return IntMatrix([[1 if sigma[j] == i else 0 for j in range(n)] for i in range(n)])


def _blockdiag(P: IntMatrix, Q: IntMatrix) -> IntMatrix:
    top = IntMatrix.hstack(P, IntMatrix.zeros(P.rows, Q.cols))
    bot = IntMatrix.hstack(IntMatrix.zeros(Q.rows, P.cols), Q)
    return IntMatrix.vstack(top, bot)


def _subst_witness(i1: SubstitutionInvariant, i2: SubstitutionInvariant,
                   sigma: list[int], psi: IntMatrix) -> dict:
    phi1 = _permutation_matrix(sigma)
    w = {"p_permutation": sigma, "phi1": phi1.to_lists(), "phi3": psi.to_lists()}
    phi2 = _blockdiag(phi1, psi)
    unimodular = abs(i1.A_tilde.det()) == 1 and abs(i2.A_tilde.det()) == 1
    intertwines = i2.A_tilde @ phi2 == phi2 @ i1.A_tilde
    # phi2 is a genuine map of the limits only when the big matrices are
    # unimodular (stage-0 identification) or the block map intertwines exactly
    if unimodular or intertwines:
        w["phi2"] = phi2.to_lists()
    else:
        w["phi2"] = None
    return w


def check_subst_witness(i1: SubstitutionInvariant, i2: SubstitutionInvariant,
                        witness: dict) -> bool:
    """Verify every claim a comparison witness makes, exactly.

    phi1 must be the stated permutation carrying p1 to p2, phi3 an
    order isomorphism of the reduced groups, and phi2, when present,
    unimodular with phi1 in the top-left block, zeros below it, and
    phi3 in the bottom-right, intertwining the big matrices unless both
    are unimodular.
    """
    try:
        sigma = list(witness["p_permutation"])
        phi1 = IntMatrix(witness["phi1"])
        psi = IntMatrix(witness["phi3"])
    except (KeyError, TypeError, ValueError):
        return False
    n, m = i1.n, i1.alphabet_size
    if i2.n != n or i2.alphabet_size != m:
        return False
    if sorted(sigma) != list(range(n)) or phi1 != _permutation_matrix(sigma):
        return False
    if tuple(phi1.apply(i1.p)) != i2.p:
        return False
    if psi.rows != m or psi.cols != m or abs(psi.det()) != 1:
        return False
    G1 = StationaryDimensionGroup(i1.A)
    G2 = StationaryDimensionGroup(i2.A)
    psi_ok = False
    if psi @ i1.A == i2.A @ psi:
        psi_ok = psi.is_nonnegative() and unimodular_inverse(psi).is_nonnegative()
    if not psi_ok and m == 2:
        try:
            psi_ok = is_positive_slope_map(G1, G2, psi)
        except ValueError:
            psi_ok = False
    if not psi_ok:
        return False
    phi2_raw = witness.get("phi2")
    if phi2_raw is not None:
        try:
            phi2 = IntMatrix(phi2_raw)
        except (TypeError, ValueError):
            return False
        if phi2.rows != n + m or phi2.cols != n + m or abs(phi2.det()) != 1:
            return False
        for j in range(n):
            want = tuple(phi1.column(j)) + (0,) * m
            if phi2.column(j) != want:
                return False
        for j in range(m):
            if phi2.column(n + j)[n:] != psi.column(j):
                return False
        both_unimodular = abs(i1.A_tilde.det()) == 1 and abs(i2.A_tilde.det()) == 1
        if not both_unimodular and i2.A_tilde @ phi2 != phi2 @ i1.A_tilde:
            return False
    return True


def _checked_match(i1: SubstitutionInvariant, i2: SubstitutionInvariant,
                   sigma: list[int], psi: IntMatrix) -> V.IsoVerdict:
    """isomorphic with the witness of (sigma, psi) if check_subst_witness accepts it."""
    w = _subst_witness(i1, i2, sigma, psi)
    if check_subst_witness(i1, i2, w):
        return V.isomorphic(w)
    return V.unknown("the built witness failed check_subst_witness")


def compare_substitution_invariants(i1: SubstitutionInvariant,
                                    i2: SubstitutionInvariant) -> V.IsoVerdict:
    """Decide equivalence of two substitution invariants.

    Pipeline: sizes and distinguished vectors first, then the reduced
    ordered-group comparison: structural equality, permutation
    conjugacy, finite-generation type, and for primitive 2x2 unimodular
    matrices the exact Perron-slope decision.  Unknown is returned when
    no exact engine applies.  The vanishing lower-left block makes every
    projected scale class zero, so the distinguished vectors carry the
    whole scale constraint.  An isomorphic verdict carries a witness
    that check_subst_witness has accepted.
    """
    if i1.n != i2.n:
        return V.not_isomorphic("numbers of distinguished generators differ")
    if i1 == i2:
        return _checked_match(i1, i2, list(range(i1.n)), IntMatrix.identity(i1.alphabet_size))
    sigma = _matching_permutation(i1.p, i2.p)
    if sigma is None:
        return V.not_isomorphic("distinguished vectors do not match under any permutation")
    m1, m2 = i1.alphabet_size, i2.alphabet_size
    G1 = StationaryDimensionGroup(i1.A)
    G2 = StationaryDimensionGroup(i2.A)
    spent = ""  # appended to an unknown reached after a search cut short
    if m1 == m2:
        perm, complete = _conjugating_permutation(i1.A.data, i2.A.data)
        if perm is not None:
            return _checked_match(i1, i2, sigma, _permutation_matrix(perm))
        if not complete:
            spent = ("; the letter-permutation search stopped at "
                     f"CONJUGACY_BUDGET = {CONJUGACY_BUDGET} candidates")
    det1, det2 = G1.determinant(), G2.determinant()
    if det1 != 0 and det2 != 0 and m1 != m2:
        # nonzero determinant pins the torsion-free rank at the matrix size
        return V.not_isomorphic("group ranks differ")
    fg1, fg2 = G1.is_finitely_generated(), G2.is_finitely_generated()
    if fg1 is None or fg2 is None:
        return V.unknown("a vanishing determinant leaves the group type undecided here" + spent)
    if fg1 != fg2:
        return V.not_isomorphic("one group is finitely generated, the other is not")
    if not fg1:
        return V.unknown("no exact engine for two non-finitely-generated groups" + spent)
    if m1 == 2 and G1.is_primitive() and G2.is_primitive():
        # |det| = 1 and a Perron root above 1 make both slopes irrational
        psi = order_iso_base(G1, G2)
        if psi is None:
            return V.not_isomorphic("Perron slope classes are inequivalent")
        return _checked_match(i1, i2, sigma, psi)
    return V.unknown("beyond the exact rank-2 engine" + spent)
