"""Finitely generated abelian groups in canonical form, and their maps.

A group is stored as ``Z^free_rank + Z/d1 + ... + Z/dk`` with invariant
factors ``2 <= d1 | d2 | ... | dk``.  Canonical generators are ordered
free generators first, then torsion generators in increasing invariant
factor order.  Elements are coordinate tuples against that order, with
torsion coordinates kept in ``[0, d)``.

Group homomorphisms are integer matrices read against the canonical
generator orders (columns indexed by domain generators, rows by codomain
generators).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrix import IntMatrix, identity_rows, kron, preimage_lattice, snf, solve


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group in canonical form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        torsion = tuple(self.torsion)
        # exact ints only, as for matrix entries: 92.5 is refused, not read as 92
        if type(self.free_rank) is not int or not {int}.issuperset(map(type, torsion)):
            raise TypeError("rank and torsion must be integers")
        object.__setattr__(self, "torsion", torsion)
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def gen_orders(self) -> tuple[int, ...]:
        """Order of each canonical generator, 0 meaning infinite."""
        return (0,) * self.free_rank + self.torsion

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        if not self.is_finite():
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinate tuple of an element."""
        if len(coords) != self.ngens:
            raise ValueError("coordinate length mismatch")
        out = list(coords[: self.free_rank])
        for d, x in zip(self.torsion, coords[self.free_rank:]):
            out.append(x % d)
        return tuple(out)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def relation_matrix(G: FgAbelianGroup) -> IntMatrix:
    """Relations of the canonical presentation: one column d*e_i per torsion generator."""
    cols = []
    for i, d in enumerate(G.torsion):
        col = [0] * G.ngens
        col[G.free_rank + i] = d
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=G.ngens)


class Presentation:
    """Cokernel of an integer relation matrix, with canonical coordinates.

    The presented group is Z^n modulo the column span of ``rel`` (n =
    ``rel.rows``).  The Smith form of the relations yields the canonical
    form together with the quotient map from ambient coordinates, which
    ``cokernel`` reads off; ``dec`` keeps that Smith form, for the kernel
    of ``rel`` and to solve against it.
    """

    __slots__ = ("group", "dec", "_free_idx", "_tor_idx", "_orders")

    def __init__(self, rel: IntMatrix):
        n, q = rel.rows, rel.cols
        self.dec = dec = snf(rel)
        ds = [dec.D[j, j] if j < min(n, q) else 0 for j in range(n)]
        self._free_idx = [j for j, d in enumerate(ds) if d == 0]
        self._tor_idx = [j for j, d in enumerate(ds) if d >= 2]
        self._orders = tuple(ds[j] for j in self._tor_idx)
        self.group = FgAbelianGroup(len(self._free_idx), self._orders)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the class of an ambient vector."""
        y = self.dec.U.apply(vec)
        coords = [y[j] for j in self._free_idx]
        coords.extend(y[j] % d for j, d in zip(self._tor_idx, self._orders))
        return tuple(coords)


@dataclass(frozen=True, init=False, repr=False)
class GroupHom:
    """A homomorphism between groups in canonical form.

    The matrix has one column per domain generator and one row per
    codomain generator.  Rows against torsion generators are stored
    reduced modulo the generator order: only a codomain with torsion
    copies the matrix, and a free one keeps the caller's (immutable)
    matrix.  Matrices that do not define a homomorphism (a torsion
    generator sent to an element not killed by its order) are rejected.

    The Smith form of the lattice L_f = [f | R] (R the codomain
    relations) is computed once, on first use, and shared by every
    reader: (co)kernel, preimages, inverse, surjectivity and exactness.
    The kernel span read off it is kept beside it.
    """

    # the caches are slots, not fields: equality and hashing skip them
    __slots__ = ("domain", "codomain", "matrix", "_presentation", "_kernel_span")
    domain: FgAbelianGroup
    codomain: FgAbelianGroup
    matrix: IntMatrix

    def __init__(self, domain: FgAbelianGroup, codomain: FgAbelianGroup, matrix: IntMatrix):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError(
                f"hom matrix must be {codomain.ngens}x{domain.ngens}, got {matrix.rows}x{matrix.cols}")
        cod_orders = codomain.gen_orders
        if codomain.torsion:
            matrix = IntMatrix([[x % d if d else x for x in row]
                                for row, d in zip(matrix.data, cod_orders)], cols=matrix.cols)
        for j, o in enumerate(domain.gen_orders):
            if o == 0:
                continue
            for i, d in enumerate(cod_orders):
                x = matrix[i, j] * o
                if (x % d) if d else x:
                    raise ValueError(
                        f"not a homomorphism: generator {j} of order {o} maps to an element not killed by {o}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_presentation", None)
        object.__setattr__(self, "_kernel_span", None)

    @classmethod
    def identity(cls, G: FgAbelianGroup) -> GroupHom:
        return cls(G, G, IntMatrix.identity(G.ngens))

    @classmethod
    def zero(cls, domain: FgAbelianGroup, codomain: FgAbelianGroup) -> GroupHom:
        return cls(domain, codomain, IntMatrix.zeros(codomain.ngens, domain.ngens))

    @classmethod
    def from_images(cls, domain: FgAbelianGroup, codomain: FgAbelianGroup,
                    images: Sequence[Sequence[int]]) -> GroupHom:
        """The hom sending domain generator j to ``images[j]``."""
        return cls(domain, codomain, IntMatrix.from_columns(images, rows=codomain.ngens))

    def __call__(self, coords: Sequence[int]) -> tuple[int, ...]:
        return self.codomain.reduce(self.matrix.apply(self.domain.reduce(coords)))

    def __matmul__(self, other: GroupHom) -> GroupHom:
        """Composition self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        return GroupHom(other.domain, self.codomain, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @property
    def presentation(self) -> Presentation:
        """Codomain coordinates modulo L_f, the lattice image(f) pulls
        back to.  Its group is the cokernel of f, and it projects a
        vector to zero exactly when the vector lies in L_f."""
        if self._presentation is None:
            object.__setattr__(self, "_presentation", Presentation(
                IntMatrix.hstack(self.matrix, relation_matrix(self.codomain))))
        return self._presentation

    @property
    def kernel_span(self) -> tuple[tuple[int, ...], ...]:
        """A basis of {v : f v lies in the codomain relations}, the lattice
        kernel(f) pulls back to: the kernel of L_f cut to the domain
        coordinates, as in ``preimage_lattice``."""
        if self._kernel_span is None:
            n = self.domain.ngens
            object.__setattr__(self, "_kernel_span",
                               tuple(v[:n] for v in self.presentation.dec.kernel()))
        return self._kernel_span

    def preimage(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """One x with f x == vec modulo the codomain relations (a solution
        of L_f cut to the domain coordinates), or None if there is none."""
        sol = self.presentation.dec.solve(vec)
        return None if sol is None else sol[:self.domain.ngens]

    def is_surjective(self) -> bool:
        return self.presentation.group.is_trivial()

    def is_isomorphism(self) -> bool:
        """Groups are canonical, so isomorphic groups are equal, and a
        surjective endomorphism of a finitely generated abelian group is
        injective.  A generator sent to zero lies in the kernel, so a zero
        column refuses the map before any factorization."""
        return (self.domain == self.codomain and all(map(any, zip(*self.matrix.data)))
                and self.is_surjective())

    def inverse(self) -> GroupHom:
        """Inverse of an isomorphism: the preimages of the generators."""
        if not self.is_isomorphism():
            raise ValueError("hom is not invertible")
        return GroupHom.from_images(self.codomain, self.domain, [
            self.preimage(e) for e in identity_rows(self.codomain.ngens)])

    def __repr__(self) -> str:
        return f"GroupHom({self.domain} -> {self.codomain}, {self.matrix.to_lists()})"


def kernel(f: GroupHom) -> tuple[FgAbelianGroup, GroupHom]:
    """Kernel subgroup with its inclusion into the domain."""
    G = f.domain
    # relation columns are independent, so both lattices come as bases
    span = f.kernel_span
    B = IntMatrix.from_columns(span, rows=G.ngens)
    rels = preimage_lattice(B, relation_matrix(G))
    K, q = cokernel(GroupHom(FgAbelianGroup(len(rels)), FgAbelianGroup(len(span)),
                             IntMatrix.from_columns(rels, rows=len(span))))
    return K, GroupHom.from_images(K, G, [B.apply(q.preimage(e)) for e in identity_rows(K.ngens)])


def cokernel(f: GroupHom) -> tuple[FgAbelianGroup, GroupHom]:
    """Cokernel with the projection from the codomain: the rows of U (in
    U [f | R] V = D) that carry a generator of the quotient.  For an
    integer matrix M, cokernel(GroupHom(Z^q, Z^n, M)) is Z^n / M Z^q."""
    pres = f.presentation
    U = pres.dec.U
    proj = GroupHom(f.codomain, pres.group, IntMatrix(
        [U.row(j) for j in pres._free_idx + pres._tor_idx], cols=U.cols))
    return proj.codomain, proj


def is_exact_pair(f: GroupHom, g: GroupHom) -> bool:
    """Whether image(f) equals kernel(g) inside f.codomain == g.domain.

    image(f) lies in kernel(g) exactly when g sends every column of f
    to zero; no composed hom is built.  Then the lattice L_f = [f | R]
    of image(f) lies in the lattice kernel(g) pulls back to, and the two
    are equal exactly when every vector of g's kernel span lies in L_f,
    that is, projects to zero modulo L_f.
    """
    if f.codomain != g.domain:
        raise ValueError("maps are not composable")
    if any(any(g(col)) for col in zip(*f.matrix.data)):
        return False
    pres = f.presentation
    zero = pres.group.zero()
    return all(pres.project(v) == zero for v in g.kernel_span)


def solve_hom_equations(
    domain: FgAbelianGroup,
    codomain: FgAbelianGroup,
    equations: Sequence[tuple[GroupHom | None, GroupHom | None, IntMatrix]],
) -> GroupHom | None:
    """Find H: domain -> codomain with P @ H @ Q == rhs for each (P, Q, rhs).

    P post-composes (None meaning the identity on the codomain) and Q
    pre-composes (None meaning the identity on the domain); equality is
    equality of homomorphisms, so torsion rows are compared modulo their
    orders.  Returns one solution or None.  Any solution is automatically
    a well defined homomorphism.
    """
    ncod, ndom = codomain.ngens, domain.ngens
    nu = ncod * ndom  # H flattened row by row: entry (u, v) is unknown u * ndom + v

    rows: list[list[int]] = []
    rhs: list[int] = []
    slack_mods: list[int] = []

    # a generator v of order o > 0 goes to an element of order dividing o:
    # o H[u, v] = 0 modulo the order d of generator u, or H[u, v] = 0 if d = 0
    for v, o in enumerate(domain.gen_orders):
        if o == 0:
            continue
        for u, d in enumerate(codomain.gen_orders):
            row = [0] * nu
            row[u * ndom + v] = o if d else 1
            rows.append(row)
            rhs.append(0)
            slack_mods.append(d)

    # entry (r, c) of P H Q is row (r, c) of P (x) Q^T applied to H
    for P, Q, target in equations:
        X = P.codomain if P is not None else codomain
        Y = Q.domain if Q is not None else domain
        if P is not None and P.domain != codomain:
            raise ValueError("post-map domain mismatch")
        if Q is not None and Q.codomain != domain:
            raise ValueError("pre-map codomain mismatch")
        if target.rows != X.ngens or target.cols != Y.ngens:
            raise ValueError("equation target has wrong shape")
        p_rows = P.matrix.data if P is not None else identity_rows(ncod)
        q_cols = ([Q.matrix.column(c) for c in range(Y.ngens)] if Q is not None
                  else identity_rows(ndom))
        rows.extend(kron(p_rows, q_cols))
        for r, mod in enumerate(X.gen_orders):
            rhs.extend(target.row(r))
            slack_mods.extend([mod] * Y.ngens)

    # one slack column per row with a modulus, holding that modulus
    slack = [i for i, m in enumerate(slack_mods) if m]
    system = IntMatrix([row + [slack_mods[i] if i == k else 0 for k in slack]
                        for i, row in enumerate(rows)], cols=nu + len(slack))
    sol = solve(system, rhs)
    if sol is None:
        return None
    entries = sol[:nu]
    mat = IntMatrix([entries[u * ndom:(u + 1) * ndom] for u in range(ncod)], cols=ndom)
    return GroupHom(domain, codomain, mat)
