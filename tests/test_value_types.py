"""The value types of kclass are frozen dataclasses: each compares and
hashes by its fields, refuses assignment, and keeps the constructor
checks it had before it was one."""
import re
from dataclasses import FrozenInstanceError

import pytest

from kclass.dimgroup import StationaryDimensionGroup, SubstitutionInvariant
from kclass.ext import ExtElement, ExtGroup
from kclass.graphalg import DirectedGraph
from kclass.groups import FgAbelianGroup, GroupHom
from kclass.matrix import IntMatrix
from kclass.sixterm import CONE_NODES, MAP_KEYS, NODES, ConeDescriptor, SixTermInvariant

Z = FgAbelianGroup(1)
Z2 = FgAbelianGroup(0, (2,))
Z4 = FgAbelianGroup(0, (4,))
TRIV = FgAbelianGroup(0)


def identity_cycle():
    """K0B = K0E = Z joined by the identity, every other node trivial."""
    groups = {n: Z if n in ("K0B", "K0E") else TRIV for n in NODES}
    maps = {}
    for key in MAP_KEYS:
        src, dst = key.split("->")
        maps[key] = (GroupHom.identity(Z) if key == "K0B->K0E"
                     else GroupHom.zero(groups[src], groups[dst]))
    return SixTermInvariant(groups, maps, {n: ConeDescriptor("unordered") for n in CONE_NODES})


# (make, a field, the constructor call on a bad input, its error, its message);
# make builds one value from unnormalized input, so two calls are equal
# only if the constructor normalizes
CASES = {
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), "rows",
                  lambda: IntMatrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "GroupHom": (lambda: GroupHom(Z, Z2, IntMatrix([[3]])), "matrix",
                 lambda: GroupHom(Z2, Z, IntMatrix([[1]])), ValueError,
                 "not a homomorphism: generator 0 of order 2 maps to an element not killed by 2"),
    "ConeDescriptor": (lambda: ConeDescriptor("stationary_dg", IntMatrix([[1, 1], [1, 0]])),
                       "tag", lambda: ConeDescriptor("bogus"), ValueError,
                       "unknown cone tag 'bogus'"),
    "SixTermInvariant": (identity_cycle, "maps",
                         lambda: SixTermInvariant({}, {}, {}), ValueError,
                         f"groups must be keyed by {NODES}"),
    "ExtGroup": (lambda: ExtGroup(Z4, Z2), "source",
                 lambda: ExtGroup(Z4), TypeError, "missing 1 required positional argument: 'target'"),
    "ExtElement": (lambda: ExtElement(ExtGroup(Z4, Z), [5]), "coords",
                   lambda: ExtElement(ExtGroup(Z4, Z), [1, 2]), ValueError,
                   "coordinate length mismatch"),
    "StationaryDimensionGroup": (lambda: StationaryDimensionGroup(IntMatrix([[1, 1], [1, 0]])),
                                 "matrix", lambda: StationaryDimensionGroup(IntMatrix([[1, 1]])),
                                 ValueError, "stationary dimension group needs a square matrix"),
    "SubstitutionInvariant": (
        lambda: SubstitutionInvariant(1, [1], IntMatrix([[2]]), IntMatrix([[1, 0], [0, 2]])), "p",
        lambda: SubstitutionInvariant(0, [], IntMatrix([[2]]), IntMatrix([[2]])), ValueError,
        "need at least one distinguished generator"),
    "DirectedGraph": (lambda: DirectedGraph(("a", "b"), [[0, 1], [0, 0]]), "vertices",
                      lambda: DirectedGraph(["a", "a"], [[0, 0], [0, 0]]), ValueError,
                      "vertex labels must be distinct"),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_is_frozen_and_keeps_its_checks(name):
    make, field, bad, error, message = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    if name == "DirectedGraph":
        # graphs compare by identity
        assert a == a and a != b and len({a, b}) == 2
    else:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for attr in (field, "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, attr, None)
    with pytest.raises(error, match=re.escape(message)):
        bad()


def test_constructors_normalize_their_fields():
    assert ExtElement(ExtGroup(Z4, Z), [5]).coords == (1,)
    assert GroupHom(Z, Z2, IntMatrix([[3]])).matrix == IntMatrix([[1]])
    assert SubstitutionInvariant(1, [1], IntMatrix([[2]]), IntMatrix([[1, 0], [0, 2]])).p == (1,)
    assert DirectedGraph(("a", "b"), [[0, 1], [0, 0]]).adjacency == IntMatrix([[0, 1], [0, 0]])
    assert ExtGroup(Z4, FgAbelianGroup(1, (6,))).moduli == (4, 2)
