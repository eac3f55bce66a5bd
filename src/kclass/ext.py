"""Extension groups Ext(A, B) over the integers and extension classes.

For A with invariant factors d_1 | ... | d_k the group Ext(A, B) is
B/d_1 B + ... + B/d_k B.  Elements are stored in block coordinates
aligned to the torsion generators of A: block i is a vector over the
canonical generators of B, with each coordinate reduced modulo the
block modulus (d_i against a free generator of B, gcd(d_i, e) against a
torsion generator of order e).  The free part of A contributes nothing.

The induced maps are Kronecker matrices on these block coordinates:
pushing along beta: B1 -> B2 applies I_k (x) beta to the k blocks, and
pulling along alpha: A1 -> A2 applies chain^T (x) I_s, where chain is the
map that alpha induces on the torsion relation lattices and s is the
number of generators of B.  ``extension_class`` expects an exact
sequence and does not prove exactness again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Sequence

from .matrix import IntMatrix, identity_rows, kron
from .groups import FgAbelianGroup, GroupHom, cokernel


@dataclass(frozen=True, repr=False)
class ExtGroup:
    """Ext(source, target) with a basis aligned to the source's torsion generators."""

    source: FgAbelianGroup
    target: FgAbelianGroup
    # derived from the two groups, so left out of equality and hashing
    moduli: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(d if e == 0 else gcd(d, e)
                                                 for d in self.source.torsion
                                                 for e in self.target.gen_orders))

    @property
    def group(self) -> FgAbelianGroup:
        """The abstract group, in canonical form: the sum of the cyclic
        groups Z/m over the moduli, none of which is zero.  Replacing
        Z/a + Z/b by Z/gcd + Z/lcm for every pair i < j in turn leaves
        each order dividing all later ones."""
        orders = list(self.moduli)
        for i, a in enumerate(orders):
            for j in range(i + 1, len(orders)):
                b = orders[j]
                g = gcd(a, b)
                orders[j] = a // g * b
                a = g
            orders[i] = a
        return FgAbelianGroup(0, tuple(m for m in orders if m > 1))

    @property
    def nblocks(self) -> int:
        return len(self.source.torsion)

    @property
    def block_size(self) -> int:
        return self.target.ngens

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != len(self.moduli):
            raise ValueError("coordinate length mismatch")
        return tuple(x % m for x, m in zip(coords, self.moduli))

    def element(self, coords: Sequence[int]) -> ExtElement:
        return ExtElement(self, coords)

    def zero(self) -> ExtElement:
        return self.element((0,) * len(self.moduli))

    def block(self, coords: Sequence[int], i: int) -> tuple[int, ...]:
        s = self.block_size
        return tuple(coords[i * s: (i + 1) * s])

    def __repr__(self) -> str:
        return f"ExtGroup({self.source} by {self.target}: {self.group})"


@dataclass(frozen=True, repr=False)
class ExtElement:
    """An element of an ExtGroup, in reduced block coordinates."""

    group: ExtGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce(self.coords))

    def __repr__(self) -> str:
        return f"ExtElement({self.coords} in {self.group.group})"


def ext1(source: FgAbelianGroup, target: FgAbelianGroup) -> ExtGroup:
    """The extension group Ext(source, target) with its aligned basis."""
    return ExtGroup(source, target)


def extension_class(incl: GroupHom, proj: GroupHom) -> ExtElement:
    """Class of a short exact sequence 0 -> B -> G -> A -> 0.

    ``incl`` is B -> G and ``proj`` is G -> A, and the sequence must be
    exact: that is not checked here (a six-term invariant is proved
    exact when it is built, and ``realize_extension`` is exact by
    construction).  The class is measured by lifting each torsion
    generator a of A to g in G and expressing (order of a) * g as an
    element of B.  With this convention the sequence
    0 -> Z -(m)-> Z -> Z/m -> 0 has class +1 times the canonical
    generator.  Another lift moves the class by multiples of the block
    moduli, which the reduced coordinates forget.
    """
    B, A = incl.domain, proj.codomain
    if incl.codomain != proj.domain:
        raise ValueError("maps are not composable")

    E = ExtGroup(A, B)
    units = identity_rows(A.ngens)
    coords: list[int] = []
    for i, d in enumerate(A.torsion):
        lifted = proj.preimage(units[A.free_rank + i])
        if lifted is None:
            raise ValueError("projection failed to lift a generator")
        back = incl.preimage([d * x for x in lifted])
        if back is None:
            raise ValueError("scaled lift is not in the image of the inclusion")
        coords.extend(back)
    return E.element(coords)


def realize_extension(x: ExtElement) -> tuple[FgAbelianGroup, GroupHom, GroupHom]:
    """A short exact sequence 0 -> B -> G -> A -> 0 with class x.

    Returns (middle group, inclusion, projection) built from the block
    coordinates of x: the middle group is generated by the generators of
    B and lifts of the generators of A, with each torsion lift g_i
    satisfying d_i g_i = (block i of x) inside B.  G is the cokernel of
    those relations as a map into Z^(generators of B and A).
    """
    E = x.group
    A, B = E.source, E.target
    nb, na = B.ngens, A.ngens
    n = nb + na
    cols = []
    for j, e in enumerate(B.torsion):
        col = [0] * n
        col[B.free_rank + j] = e
        cols.append(col)
    for i, d in enumerate(A.torsion):
        col = [-c for c in E.block(x.coords, i)] + [0] * na
        col[nb + A.free_rank + i] = d
        cols.append(col)
    G, q = cokernel(GroupHom(FgAbelianGroup(len(cols)), FgAbelianGroup(n),
                             IntMatrix.from_columns(cols, rows=n)))
    incl = GroupHom(B, G, IntMatrix([row[:nb] for row in q.matrix.data], cols=nb))
    proj = GroupHom.from_images(G, A, [A.reduce(q.preimage(e)[nb:])
                                       for e in identity_rows(G.ngens)])
    return G, incl, proj


def _pull_matrix(alpha: GroupHom, s: int) -> IntMatrix:
    """chain^T (x) I_s: Ext(A2, B) -> Ext(A1, B) on block coordinates,
    for alpha: A1 -> A2 and B with s generators.

    chain is the induced map on torsion relation lattices: its entry
    [j][i] is d1_i * alpha[row j][col i] / d2_j, an integer exactly
    because alpha is a homomorphism.
    """
    A1, A2 = alpha.domain, alpha.codomain
    chain_t = [[d1 * alpha.matrix[A2.free_rank + j, A1.free_rank + i] // d2
                for j, d2 in enumerate(A2.torsion)]
               for i, d1 in enumerate(A1.torsion)]
    return IntMatrix(kron(chain_t, identity_rows(s)), cols=len(A2.torsion) * s)


def _push_matrix(beta: GroupHom, k: int) -> IntMatrix:
    """I_k (x) beta: Ext(A, B1) -> Ext(A, B2) on the k blocks."""
    return IntMatrix(kron(identity_rows(k), beta.matrix.data), cols=k * beta.domain.ngens)


def pull_element(alpha: GroupHom, x: ExtElement) -> ExtElement:
    """Functorial map Ext(A2, B) -> Ext(A1, B) along alpha: A1 -> A2."""
    E = x.group
    if alpha.codomain != E.source:
        raise ValueError("alpha must land in the source of the Ext group")
    target_ext = ExtGroup(alpha.domain, E.target)
    return target_ext.element(_pull_matrix(alpha, E.block_size).apply(x.coords))


def push_element(beta: GroupHom, x: ExtElement) -> ExtElement:
    """Functorial map Ext(A, B1) -> Ext(A, B2) along beta: B1 -> B2."""
    E = x.group
    if beta.domain != E.target:
        raise ValueError("beta must start at the target of the Ext group")
    target_ext = ExtGroup(E.source, beta.codomain)
    return target_ext.element(_push_matrix(beta, E.nblocks).apply(x.coords))


def _induced_steps(E: ExtGroup, source_auts: Sequence[GroupHom],
                   target_auts: Sequence[GroupHom]) -> list[tuple[str, int, IntMatrix]]:
    steps: list[tuple[str, int, IntMatrix]] = []
    for i, alpha in enumerate(source_auts):
        if alpha.domain != E.source or alpha.codomain != E.source:
            raise ValueError("source automorphism acts on the wrong group")
        if not alpha.is_isomorphism():
            raise ValueError("source generator is not an automorphism")
        steps.append(("pull", i, _pull_matrix(alpha, E.block_size)))
    for i, beta in enumerate(target_auts):
        if beta.domain != E.target or beta.codomain != E.target:
            raise ValueError("target automorphism acts on the wrong group")
        if not beta.is_isomorphism():
            raise ValueError("target generator is not an automorphism")
        steps.append(("push", i, _push_matrix(beta, E.nblocks)))
    return steps


def orbit_search(E: ExtGroup, x1: ExtElement, x2: ExtElement,
                 source_auts: Sequence[GroupHom], target_auts: Sequence[GroupHom],
                 limit: int = 10 ** 6):
    """BFS of the orbit of x1 under the induced automorphism action.

    Returns (found, word) where found is True/False/None (None when the
    orbit enumeration exceeded ``limit``) and word is the sequence of
    moves ("pull"/"push", generator index) carrying x1 to x2.
    """
    if x1.group != E or x2.group != E:
        raise ValueError("elements do not live in the given Ext group")
    steps = _induced_steps(E, source_auts, target_auts)
    start = x1.coords
    goal = x2.coords
    if start == goal:
        return True, []
    seen = {start: None}
    frontier = [start]
    while frontier:
        new: list[tuple[int, ...]] = []
        for c in frontier:
            for kind, idx, M in steps:
                nc = E.reduce(M.apply(c))
                if nc in seen:
                    continue
                seen[nc] = (c, kind, idx)
                if nc == goal:
                    word = []
                    cur = nc
                    while seen[cur] is not None:
                        prev, kind2, idx2 = seen[cur]
                        word.append((kind2, idx2))
                        cur = prev
                    word.reverse()
                    return True, word
                if len(seen) > limit:
                    return None, None
                new.append(nc)
        frontier = new
    return False, None

