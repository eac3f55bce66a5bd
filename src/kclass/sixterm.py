"""Cyclic six-term invariants and their isomorphism decision.

An invariant packages six finitely generated abelian groups arranged in
an exact cycle

    K0B -> K0E -> K0A -> K1B -> K1E -> K1A -> K0B

together with positivity data (a cone descriptor) on the three K0 nodes.
Isomorphism means six simultaneous group isomorphisms making every
square commute, with the maps at the two end nodes K0B and K0A also
respecting the cones.  The middle cone is carried along for display but
never constrains the decision.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .matrix import IntMatrix
from .groups import (FgAbelianGroup, GroupHom, kernel, cokernel, is_exact_pair,
                     solve_hom_equations)
from .ext import ext1, extension_class, pull_element, push_element, orbit_search
from .autgroups import aut_generators, aut_order, subgroup_closure, word_ball
from .dimgroup import (StationaryDimensionGroup, is_positive_slope_map,
                       order_iso_base, cone_stabilizer_generator, perron_slope)
from .verdict import IsoVerdict, isomorphic, not_isomorphic, unknown

NODES = ("K0B", "K0E", "K0A", "K1A", "K1E", "K1B")
# The nodes in cycle order: map i runs from node i to node i + 1.
_CYCLE = ("K0B", "K0E", "K0A", "K1B", "K1E", "K1A")
MAP_KEYS = tuple(f"{a}->{b}" for a, b in zip(_CYCLE, _CYCLE[1:] + _CYCLE[:1]))
CONE_NODES = ("K0B", "K0E", "K0A")
END_NODES = ("K0B", "K0A")

ALL_POSITIVE = "all_positive"
STANDARD_FREE = "standard_free"
STATIONARY_DG = "stationary_dg"
UNORDERED = "unordered"
_TAGS = (ALL_POSITIVE, STANDARD_FREE, STATIONARY_DG, UNORDERED)

# Search bounds of the decision.  A word ball is (radius, limit).
PAIR_BUDGET = 10**4          # end pairs tried when some group is infinite
CLOSURE_LIMIT = 10**5        # maps listed at one node
ORBIT_LIMIT = 10**6          # extension class orbit states
END_BALL = (4, 500)          # order automorphisms at an infinite end
STATIONARY_BALL = (12, 500)  # the same at an end with a stationary cone
FALLBACK_BALL = (4, 200)     # K1B or K1A with infinitely many solutions
MAX_GENERATORS = 20          # generators of a group read from JSON


class UnsupportedConeError(ValueError):
    """Raised when no exact engine handles the given cone descriptor."""


class NotExactError(ValueError):
    """Raised for a cycle that is not exact; ``failures`` holds one
    message per failing node."""

    def __init__(self, failures: list[str]):
        super().__init__("; ".join(failures))
        self.failures = failures


@dataclass(frozen=True, repr=False)
class ConeDescriptor:
    """Positivity data attached to a K0 node.

    all_positive   the whole group is the cone (purely infinite side)
    standard_free  coordinatewise cone on a free group (AF side)
    stationary_dg  rank-2 stationary cone described by a matrix
    unordered      no positivity constraint
    """

    tag: str
    matrix: IntMatrix | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown cone tag {self.tag!r}")
        if self.tag == STATIONARY_DG:
            if self.matrix is None:
                raise ValueError("stationary cone needs a matrix")
            if self.matrix.rows != self.matrix.cols:
                raise ValueError("stationary cone matrix must be square")
        elif self.matrix is not None:
            raise ValueError(f"cone tag {self.tag!r} takes no matrix")

    def __repr__(self) -> str:
        if self.tag == STATIONARY_DG:
            return f"ConeDescriptor({self.tag!r}, {self.matrix.to_lists()})"
        return f"ConeDescriptor({self.tag!r})"

    def problems_for(self, group: FgAbelianGroup) -> list[str]:
        """Structural incompatibilities between this cone and a group."""
        out: list[str] = []
        if self.tag == STANDARD_FREE and group.torsion:
            out.append("standard_free cone on a group with torsion")
        if self.tag == STATIONARY_DG:
            if group.torsion:
                out.append("stationary cone on a group with torsion")
            elif group.free_rank != self.matrix.rows:
                out.append("stationary cone matrix size differs from the rank")
        return out

    def to_json(self) -> dict:
        data: dict = {"tag": self.tag}
        if self.matrix is not None:
            data["matrix"] = self.matrix.to_lists()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ConeDescriptor":
        if not isinstance(data, dict):
            raise TypeError("a cone must be a JSON object")
        mat = data.get("matrix")
        return cls(data["tag"], None if mat is None else IntMatrix(mat))


def all_positive_cone() -> ConeDescriptor:
    return ConeDescriptor(ALL_POSITIVE)


def standard_free_cone() -> ConeDescriptor:
    return ConeDescriptor(STANDARD_FREE)


def stationary_cone(matrix: IntMatrix) -> ConeDescriptor:
    return ConeDescriptor(STATIONARY_DG, matrix)


def unordered_cone() -> ConeDescriptor:
    return ConeDescriptor(UNORDERED)


def _group_json(G: FgAbelianGroup) -> dict:
    return {"rank": G.free_rank, "torsion": list(G.torsion)}


def _group_from_json(data: dict) -> FgAbelianGroup:
    G = FgAbelianGroup(data["rank"], tuple(data["torsion"]))
    if G.ngens > MAX_GENERATORS:  # its matrices grow with the square of this
        raise ValueError(f"a group has {G.ngens} generators, past MAX_GENERATORS = {MAX_GENERATORS}")
    return G


def _matrix_from_json(raw, codomain: FgAbelianGroup, domain: FgAbelianGroup,
                      name: str) -> IntMatrix:
    """A map's matrix read from JSON: a list of rows, ``[]`` standing for
    the zero map.  Any other value, even a falsy one, raises TypeError."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise TypeError(f"{name} must be a list of rows")
    return IntMatrix(raw) if raw else IntMatrix.zeros(codomain.ngens, domain.ngens)


@dataclass(frozen=True)
class SixTermInvariant:
    """The exact six-term cycle with cones on its K0 nodes.

    Exactness is checked once, here: a cycle that is not exact raises
    NotExactError, so every instance is a valid invariant.
    """

    __slots__ = ("groups", "maps", "cones")  # a batch keeps every invariant it loads
    groups: dict
    maps: dict
    cones: dict

    def __post_init__(self):
        groups, maps, cones = self.groups, self.maps, self.cones
        if set(groups) != set(NODES):
            raise ValueError(f"groups must be keyed by {NODES}")
        if set(maps) != set(MAP_KEYS):
            raise ValueError(f"maps must be keyed by {MAP_KEYS}")
        if set(cones) != set(CONE_NODES):
            raise ValueError(f"cones must be keyed by {CONE_NODES}")
        for key in MAP_KEYS:
            src, dst = key.split("->")
            h = maps[key]
            if h.domain != groups[src] or h.codomain != groups[dst]:
                raise ValueError(f"map {key} does not match its node groups")
        for node in CONE_NODES:
            for problem in cones[node].problems_for(groups[node]):
                raise ValueError(f"cone at {node}: {problem}")
        object.__setattr__(self, "groups", {n: groups[n] for n in NODES})
        object.__setattr__(self, "maps", {k: maps[k] for k in MAP_KEYS})
        object.__setattr__(self, "cones", {n: cones[n] for n in CONE_NODES})
        failures = validate_sixterm(self)
        if failures:
            raise NotExactError(failures)

    def __hash__(self) -> int:
        # the fields are dicts, which do not hash
        return hash((tuple(self.groups[n] for n in NODES),
                     tuple(self.maps[k].matrix for k in MAP_KEYS),
                     tuple(self.cones[n] for n in CONE_NODES)))

    def to_json(self) -> dict:
        return {
            "groups": {n: _group_json(self.groups[n]) for n in NODES},
            "maps": {k: self.maps[k].matrix.to_lists() for k in MAP_KEYS},
            "cones": {n: self.cones[n].to_json() for n in CONE_NODES},
        }

    @classmethod
    def from_json(cls, data: dict, homs: dict | None = None) -> "SixTermInvariant":
        """The invariant stored in ``data``, checked for exactness.

        ``homs`` is a table of the maps loaded so far, keyed by (domain,
        codomain, matrix as read).  A map already in it is that object,
        so a batch that shares one table factors each distinct map once;
        a new map joins the table.  Left out, the table is this call's
        own.
        """
        if homs is None:
            homs = {}
        groups = {n: _group_from_json(data["groups"][n]) for n in NODES}
        maps = {}
        for key in MAP_KEYS:
            src, dst = key.split("->")
            mat = _matrix_from_json(data["maps"][key], groups[dst], groups[src], f"map {key}")
            if mat.rows != groups[dst].ngens or mat.cols != groups[src].ngens:
                raise ValueError(f"map {key} has the wrong shape")
            entry = (groups[src], groups[dst], mat)
            if entry not in homs:
                homs[entry] = GroupHom(*entry)
            maps[key] = homs[entry]
        cones = {n: ConeDescriptor.from_json(data["cones"][n]) for n in CONE_NODES}
        return cls(groups, maps, cones)


def validate_sixterm(inv: SixTermInvariant) -> list[str]:
    """Exactness violations, one message per failing node."""
    out: list[str] = []
    for i, key in enumerate(MAP_KEYS):
        j = (i + 1) % len(MAP_KEYS)
        if not is_exact_pair(inv.maps[key], inv.maps[MAP_KEYS[j]]):
            out.append(f"not exact at {_CYCLE[j]}")
    return out


# Witness component names and the node each one acts on.
_WITNESS_NODES = tuple(zip(("beta0", "eta0", "alpha0", "beta1", "eta1", "alpha1"), _CYCLE))


@dataclass
class Witness:
    """Six isomorphisms forming a map of six-term cycles."""

    beta0: GroupHom   # K0B -> K0B
    eta0: GroupHom    # K0E -> K0E
    alpha0: GroupHom  # K0A -> K0A
    beta1: GroupHom   # K1B -> K1B
    eta1: GroupHom    # K1E -> K1E
    alpha1: GroupHom  # K1A -> K1A

    def to_json(self) -> dict:
        return {name: getattr(self, name).matrix.to_lists()
                for name, _ in _WITNESS_NODES}

    @classmethod
    def from_json(cls, inv1: SixTermInvariant, inv2: SixTermInvariant,
                  data: dict) -> "Witness":
        homs = {}
        for name, node in _WITNESS_NODES:
            dom, cod = inv1.groups[node], inv2.groups[node]
            homs[name] = GroupHom(dom, cod, _matrix_from_json(data[name], cod, dom, name))
        return cls(**homs)


def _rank2(cone: ConeDescriptor) -> StationaryDimensionGroup:
    """The group of a stationary cone within the exact rank-2 engine: a
    primitive 2x2 matrix whose Perron slope is irrational."""
    dg = StationaryDimensionGroup(cone.matrix)
    try:
        perron_slope(dg)
    except ValueError:
        raise UnsupportedConeError("stationary cone beyond the rank-2 engine") from None
    return dg


def _order_respecting(h: GroupHom, c1: ConeDescriptor, c2: ConeDescriptor) -> bool:
    """Whether the isomorphism h carries cone c1 onto cone c2."""
    if h.domain.is_trivial():
        # every cone on the trivial group is the same cone
        return True
    if c1.tag != c2.tag:
        return False
    if c1.tag in (UNORDERED, ALL_POSITIVE):
        return True
    if c1.tag == STANDARD_FREE:
        return h.matrix.is_nonnegative() and h.inverse().matrix.is_nonnegative()
    return is_positive_slope_map(_rank2(c1), _rank2(c2), h.matrix)


def verify_witness(inv1: SixTermInvariant, inv2: SixTermInvariant, w) -> bool:
    """Check a claimed isomorphism: six commuting squares, six
    bijections, and cone preservation at the two end nodes."""
    if isinstance(w, dict):
        try:
            w = Witness.from_json(inv1, inv2, w)
        except (KeyError, ValueError, TypeError):
            return False
    parts = {node: getattr(w, name) for name, node in _WITNESS_NODES}
    for node, h in parts.items():
        if h.domain != inv1.groups[node] or h.codomain != inv2.groups[node]:
            return False
        if not h.is_isomorphism():
            return False
    for key in MAP_KEYS:
        src, dst = key.split("->")
        left = parts[dst] @ inv1.maps[key]
        right = inv2.maps[key] @ parts[src]
        if left != right:
            return False
    for node in END_NODES:
        try:
            if not _order_respecting(parts[node], inv1.cones[node], inv2.cones[node]):
                return False
        except UnsupportedConeError:
            return False
    return True


def aut_plus_generators(group: FgAbelianGroup, cone: ConeDescriptor) -> list[GroupHom]:
    """Generators of the order automorphisms of (group, cone).

    Raises UnsupportedConeError when no exact engine covers the pair.
    """
    if group.is_trivial():
        return [GroupHom.identity(group)]
    if cone.tag in (UNORDERED, ALL_POSITIVE):
        return aut_generators(group)
    if cone.tag == STANDARD_FREE:
        # the permutations of the coordinates: aut_generators lists the
        # adjacent transpositions first
        n = group.free_rank
        return aut_generators(group)[:n - 1] if n > 1 else [GroupHom.identity(group)]
    return [GroupHom(group, group, cone_stabilizer_generator(_rank2(cone)))]


def _end_pair(inv1: SixTermInvariant, inv2: SixTermInvariant, node: str):
    """An order isomorphism (group1, cone1) -> (group2, cone2) at an end
    node through which all others factor, or None when provably none
    exists."""
    G1, G2 = inv1.groups[node], inv2.groups[node]
    c1, c2 = inv1.cones[node], inv2.cones[node]
    if G1.is_trivial() or c1.tag != STATIONARY_DG or c2.tag != STATIONARY_DG:
        # Equal canonical groups with coordinate cones, or the trivial
        # group with any cones: identity works.  decide_iso_one_ideal has
        # already answered not_isomorphic for differing tags on a
        # nontrivial group.
        return GroupHom.identity(G1)
    dg1, dg2 = _rank2(c1), _rank2(c2)
    try:
        base = order_iso_base(dg1, dg2)
    except ValueError:
        # the continued fraction of a slope outran its step budget
        raise UnsupportedConeError("stationary cone beyond the rank-2 engine") from None
    return None if base is None else GroupHom(G1, G2, base)


def _cokernels(inv: SixTermInvariant) -> list[FgAbelianGroup]:
    """C[i] = coker f_i for each map f_i, in MAP_KEYS order.  The cycle is
    exact, so ker f_i = im f_{i-1}, which is isomorphic to coker f_{i-2}:
    map i has kernel C[i-2] and cokernel C[i]."""
    return [inv.maps[k].presentation.group for k in MAP_KEYS]


def _hom_space(A: FgAbelianGroup, B: FgAbelianGroup):
    """All homomorphisms A -> B, each built when the iteration reaches
    it, or None when they are infinitely many or more than CLOSURE_LIMIT."""
    if B.free_rank and 0 in A.gen_orders:
        return None
    # a generator of order o (0 if free) sends a torsion coordinate of
    # order d to the multiples of d / gcd(o, d), and its free ones to 0
    if math.prod(math.gcd(o, d) for o in A.gen_orders for d in B.torsion) > CLOSURE_LIMIT:
        return None
    per_gen = [[(0,) * B.free_rank + tor for tor in itertools.product(
                    *(range(0, d, d // math.gcd(o, d)) for d in B.torsion))]
               for o in A.gen_orders]
    return (GroupHom.from_images(A, B, combo) for combo in itertools.product(*per_gen))


class _Replay:
    """The items of an iterator, each built the first time a pass reaches
    it and kept, in order, for every later pass."""

    def __init__(self, items):
        self._items, self._built = iter(items), []

    def __iter__(self):
        built = self._built
        for i in itertools.count():
            if i == len(built):
                item = next(self._items, None)
                if item is None:
                    return
                built.append(item)
            yield built[i]


def _squares(inv1: SixTermInvariant, inv2: SixTermInvariant, node: str, known: dict):
    """The (P, Q, target) hom equations on the map at ``node`` from the
    squares it shares with each neighbour whose map is in ``known``,
    incoming square first."""
    i = _CYCLE.index(node)
    before, after = _CYCLE[i - 1], _CYCLE[(i + 1) % len(_CYCLE)]
    equations = []
    if before in known:  # h f1 = f2 known[before]
        into = f"{before}->{node}"
        equations.append((None, inv1.maps[into], (inv2.maps[into] @ known[before]).matrix))
    if after in known:  # f2 h = known[after] f1
        out = f"{node}->{after}"
        equations.append((inv2.maps[out], None, (known[after] @ inv1.maps[out]).matrix))
    return equations


def _fill(inv1: SixTermInvariant, inv2: SixTermInvariant, node: str, known: dict):
    """One map at ``node`` making its squares with the known neighbours
    commute, or None when none does."""
    return solve_hom_equations(inv1.groups[node], inv2.groups[node],
                               _squares(inv1, inv2, node, known))


def _iso_pool(G1, c1, base: GroupHom):
    """The order isomorphisms base . a for a in Aut(G1, c1), with a
    completeness flag."""
    # Every automorphism respects such a cone, so the closure would list Aut(G1).
    # Scaling Z/d_k by a unit is an automorphism: |Aut(G1)| >= phi(d_k) >= sqrt(d_k / 2),
    # so past d_k = 2 CLOSURE_LIMIT^2 the refusal needs no trial division of d_k.
    if G1.is_finite() and c1.tag in (UNORDERED, ALL_POSITIVE) and (
            max(G1.torsion, default=0) > 2 * CLOSURE_LIMIT**2 or aut_order(G1) > CLOSURE_LIMIT):
        return None, False
    gens = aut_plus_generators(G1, c1)
    if G1.is_finite() or c1.tag == STANDARD_FREE:
        auts = subgroup_closure(G1, gens, limit=CLOSURE_LIMIT)
        if auts is None:
            return None, False
        return [base @ a for a in auts], True
    # infinite group, infinite automorphism family: bounded word ball
    ball = STATIONARY_BALL if c1.tag == STATIONARY_DG else END_BALL
    auts = word_ball(G1, gens, *ball)
    return [base @ a for a in auts], False


def _identity_witness(inv: SixTermInvariant) -> Witness:
    return Witness(**{name: GroupHom.identity(inv.groups[node])
                      for name, node in _WITNESS_NODES})


def _ext_route(inv1: SixTermInvariant, inv2: SixTermInvariant,
               base_b: GroupHom, base_a: GroupHom):
    """Decision when the K1 row vanishes: a single extension class
    chased through the order automorphisms of the two ends."""
    A = inv1.groups["K0A"]
    B = inv1.groups["K0B"]
    iota1, pi1 = inv1.maps["K0B->K0E"], inv1.maps["K0E->K0A"]
    iota2, pi2 = inv2.maps["K0B->K0E"], inv2.maps["K0E->K0A"]
    E = ext1(A, B)
    x1 = extension_class(iota1, pi1)
    x2 = extension_class(iota2, pi2)
    # transport the second class into the frame of the first invariant
    y2 = push_element(base_b.inverse(), pull_element(base_a, x2))
    gens_a = aut_plus_generators(A, inv1.cones["K0A"])
    gens_b = aut_plus_generators(B, inv1.cones["K0B"])
    found, word = orbit_search(E, x1, y2, gens_a, gens_b, limit=ORBIT_LIMIT)
    if found is None:
        return unknown("extension class orbit exceeded the search limit: "
                       f"ORBIT_LIMIT = {ORBIT_LIMIT}")
    if found is False:
        return not_isomorphic(
            "extension classes differ under every order-compatible "
            "automorphism pair")
    U = GroupHom.identity(A)
    W = GroupHom.identity(B)
    for kind, idx in word:
        if kind == "pull":
            U = U @ gens_a[idx]
        else:
            W = gens_b[idx] @ W
    # The word gives W_* U^* x1 = (base_b^-1)_* base_a^* x2, and a map of
    # extensions needs beta0_* x1 = alpha0^* x2: so alpha0 = base_a U^-1
    # and beta0 = base_b W.
    alpha0 = base_a @ U.inverse()
    beta0 = base_b @ W
    eta0 = _fill(inv1, inv2, "K0E", {"K0B": beta0, "K0A": alpha0})
    if eta0 is not None:
        g1, g2 = inv1.groups, inv2.groups
        w = Witness(beta0, eta0, alpha0, GroupHom.zero(g1["K1B"], g2["K1B"]),
                    GroupHom.zero(g1["K1E"], g2["K1E"]),
                    GroupHom.zero(g1["K1A"], g2["K1A"]))
        if verify_witness(inv1, inv2, w):
            return isomorphic(w.to_json())
    return None  # fall through to the general search


def decide_iso_one_ideal(inv1: SixTermInvariant, inv2: SixTermInvariant) -> IsoVerdict:
    """Decide isomorphism of two six-term invariants.

    The verdict is Isomorphic with a verified witness, NotIsomorphic
    with a human-readable certificate, or Unknown when an exact search
    is out of reach.  When all six groups are finite the search space
    is finite and fully enumerated, so Unknown occurs only when an end
    has more than CLOSURE_LIMIT automorphisms, or when the maps at K1B
    or K1A number more than CLOSURE_LIMIT and a word ball samples that
    node.  A cone beyond the exact engines ends as Unknown with the
    engine's reason.  A search that needs the units of Z/d with d past
    MAX_UNIT_MODULUS raises ValueError.
    """
    try:
        return _decide(inv1, inv2)
    except UnsupportedConeError as e:
        return unknown(str(e))


def _decide(inv1: SixTermInvariant, inv2: SixTermInvariant) -> IsoVerdict:
    """The decision for two invariants; raises UnsupportedConeError
    for a cone beyond the exact engines."""
    for node in NODES:
        if inv1.groups[node] != inv2.groups[node]:
            return not_isomorphic(
                f"groups at {node} differ: {inv1.groups[node]} vs {inv2.groups[node]}")
    for node in END_NODES:
        c1, c2 = inv1.cones[node], inv2.cones[node]
        if c1.tag != c2.tag and not inv1.groups[node].is_trivial():
            return not_isomorphic(
                f"cone types at {node} differ: {c1.tag} vs {c2.tag}")
    bases = {}
    for node in END_NODES:
        base = _end_pair(inv1, inv2, node)
        if base is None:
            return not_isomorphic(
                f"no order isomorphism exists between the cones at {node}")
        bases[node] = base
    cok1, cok2 = _cokernels(inv1), _cokernels(inv2)
    for i, key in enumerate(MAP_KEYS):
        if (cok1[i - 2], cok1[i]) != (cok2[i - 2], cok2[i]):
            return not_isomorphic(
                f"kernel or cokernel of the map {key} differs")

    if inv1 == inv2:
        w = _identity_witness(inv1)
        if verify_witness(inv1, inv2, w):
            return isomorphic(w.to_json())

    k1_trivial = all(inv1.groups[n].is_trivial() for n in ("K1B", "K1E", "K1A"))
    if k1_trivial:
        verdict = _ext_route(inv1, inv2, bases["K0B"], bases["K0A"])
        if verdict is not None:
            return verdict

    return _general_search(inv1, inv2, bases)


def _general_search(inv1: SixTermInvariant, inv2: SixTermInvariant,
                    bases: dict) -> IsoVerdict:
    """Bounded enumeration over end pairs (beta0, alpha0), solving the
    four remaining maps square by square.  Exhaustive when every group
    is finite."""
    g1, g2 = inv1.groups, inv2.groups
    all_finite = all(g1[n].is_finite() for n in NODES)
    budget = None if all_finite else PAIR_BUDGET

    pool_b, complete_b = _iso_pool(g1["K0B"], inv1.cones["K0B"], bases["K0B"])
    pool_a, complete_a = _iso_pool(g1["K0A"], inv1.cones["K0A"], bases["K0A"])
    if pool_b is None or pool_a is None:
        return unknown("automorphism enumeration exceeded its limit: "
                       f"CLOSURE_LIMIT = {CLOSURE_LIMIT}")

    # The correction families of beta1 and alpha1 are independent of the
    # chosen end pair.  Each parametrizes the homogeneous solutions of its
    # map's square.  Distinct homs stay distinct under composition, since
    # proj is onto and incl is into.  A correction is built when the
    # search first reaches it, so a witness found early builds few.
    beta1_corr = None
    Cok, proj = cokernel(inv1.maps["K0A->K1B"])
    homs = _hom_space(Cok, g2["K1B"])
    if homs is not None:
        beta1_corr = _Replay(xi @ proj for xi in homs)
    alpha1_corr = None
    Ker, incl = kernel(inv2.maps["K1A->K0B"])
    homs = _hom_space(g1["K1A"], Ker)
    if homs is not None:
        alpha1_corr = _Replay(incl @ xi for xi in homs)

    # Bounded fallback balls for a node whose correction space is
    # infinite; they recover common twists but never prove absence, so a
    # node enters balls only when the search has sampled it.
    balls: dict[str, list[GroupHom]] = {}

    def bijective_candidates(node, particular, corrections, known):
        """The isomorphisms among particular plus each correction, then,
        when the corrections are not listed, the ball elements that make
        the squares with the known neighbours commute: products of
        automorphisms and their inverses, so isomorphisms too."""
        sums = (GroupHom(particular.domain, particular.codomain, particular.matrix + d.matrix)
                for d in corrections or () if not d.is_zero())
        for cand in itertools.chain([particular], sums):
            if cand.is_isomorphism():
                yield cand
        if corrections is None:
            if node not in balls:
                balls[node] = word_ball(g1[node], aut_generators(g1[node]), *FALLBACK_BALL)
            equations = _squares(inv1, inv2, node, known)
            for h in balls[node]:
                # each square composes h on one side; targets are reduced matrices
                if all((h @ Q if P is None else P @ h).matrix == target
                       for P, Q, target in equations):
                    yield h

    # Five lemma: once beta0, alpha0, beta1 and alpha1 are isomorphisms
    # satisfying their squares, any solution for eta0 or eta1 of its two
    # squares is an isomorphism, so the particular solutions suffice.
    seen_pairs = 0
    for beta0, alpha0 in itertools.product(pool_b, pool_a):
        seen_pairs += 1
        if budget is not None and seen_pairs > budget:
            return unknown(f"pair budget exhausted before a decision: PAIR_BUDGET = {PAIR_BUDGET}")
        known = {"K0B": beta0, "K0A": alpha0}
        eta0 = _fill(inv1, inv2, "K0E", known)
        if eta0 is None:
            continue
        beta1_part = _fill(inv1, inv2, "K1B", known)
        if beta1_part is None:
            continue
        alpha1_part = _fill(inv1, inv2, "K1A", known)
        if alpha1_part is None:
            continue
        for beta1 in bijective_candidates("K1B", beta1_part, beta1_corr, known):
            for alpha1 in bijective_candidates("K1A", alpha1_part, alpha1_corr, known):
                eta1 = _fill(inv1, inv2, "K1E", {"K1B": beta1, "K1A": alpha1})
                if eta1 is None:
                    continue
                w = Witness(beta0, eta0, alpha0, beta1, eta1, alpha1)
                if verify_witness(inv1, inv2, w):
                    return isomorphic(w.to_json())

    # Every end pair was excluded by an exact solve or by a complete
    # family, except at the nodes sampled by a word ball.
    sampled = [n for n, done in (("K0B", complete_b), ("K0A", complete_a))
               if not done] + list(balls)
    if not sampled:
        return not_isomorphic(
            "no automorphism pair at the ends extends to a map of cycles")
    return unknown("no witness among the sampled automorphisms at "
                   + ", ".join(sampled))
