"""The package's records against frozen dataclasses with the same fields.

Every record derives from `qkernel._Record` and writes its own `__init__`.
Each is built here next to a twin from `dataclasses.make_dataclass(...,
frozen=True)` holding the same field values, and the two must agree on
equality, hashing, repr, the constructor's parameters and defaults,
keyword construction, refused assignment and deletion, and a copy and
pickle round trip.
"""

import copy
import dataclasses
import functools
import inspect
import pickle
from fractions import Fraction

import pytest

from flatlink.boundary import DecompSphere, Flag
from flatlink.congruence import CongruenceLevel, Decomposition, SignedHit
from flatlink.construct import (
    CellWitness,
    Pattern,
    PatternFlat,
    PatternSubspace,
    RationalizedTau,
)
from flatlink.projlink import Arrangement, LinePlanePair, ProjHyperplane, ProjPoint
from flatlink.qkernel import IrredCertificate, IrredVerdict, QMatrix, QPoly
from flatlink.symspace import (
    FlatX,
    IntersectionKind,
    IntersectionResult,
    SPDPoint,
    SubspaceY,
)

TAU = QMatrix([[2, 1], [1, 1]])
POINT = SPDPoint(QMatrix([[2, 1], [1, 2]]))
Y = SubspaceY((1, 1), (1, 1), 1)
IRRED = IrredCertificate(IrredVerdict.IRREDUCIBLE, None, ((2, (2,)),))
FLATS = (PatternFlat(FlatX(TAU)),)
SUBSPACES = (PatternSubspace(Y),)

# class, its fields in order, the names of those with a default of None,
# and two keyword argument sets that build unequal records
CASES = [
    (SPDPoint, ("Z",), (), {"Z": QMatrix([[2, 1], [1, 2]])}, {"Z": QMatrix.identity(2)}),
    (FlatX, ("tau",), (), {"tau": TAU}, {"tau": QMatrix.diagonal([1, 2])}),
    (
        SubspaceY,
        ("line", "plane", "orientation"),
        (),
        {"line": (1, 1), "plane": (1, 1), "orientation": 1},
        {"line": (1, 1), "plane": (1, 1), "orientation": -1},
    ),
    (
        IntersectionResult,
        ("kind", "point", "kernel_dim", "sign"),
        ("sign",),
        {"kind": IntersectionKind.TRANSVERSE_POINT, "point": POINT, "kernel_dim": 1, "sign": -1},
        {"kind": IntersectionKind.EMPTY, "point": None, "kernel_dim": 1},
    ),
    (
        IrredCertificate,
        ("verdict", "witness", "patterns"),
        (),
        {"verdict": IrredVerdict.IRREDUCIBLE, "witness": None, "patterns": ((2, (2,)),)},
        {"verdict": IrredVerdict.REDUCIBLE, "witness": Fraction(1, 2), "patterns": ()},
    ),
    (CongruenceLevel, ("p", "n"), (), {"p": 5, "n": 1}, {"p": 5, "n": 2}),
    (
        Decomposition,
        ("a", "b"),
        (),
        {"a": QMatrix.identity(2), "b": TAU},
        {"a": TAU, "b": QMatrix.identity(2)},
    ),
    (
        SignedHit,
        ("gamma", "point", "sign"),
        (),
        {"gamma": QMatrix.identity(2), "point": POINT, "sign": 1},
        {"gamma": QMatrix.identity(2), "point": POINT, "sign": -1},
    ),
    (
        CellWitness,
        ("link", "oracle", "sign"),
        (),
        {"link": "Linked", "oracle": "TransversePoint", "sign": 1},
        {"link": None, "oracle": "Empty", "sign": None},
    ),
    (
        RationalizedTau,
        ("tau", "irred", "sturm_count", "frame_distance"),
        (),
        {"tau": TAU, "irred": IRRED, "sturm_count": 2, "frame_distance": Fraction(1, 3)},
        {"tau": TAU, "irred": IRRED, "sturm_count": 2, "frame_distance": Fraction(1, 4)},
    ),
    (
        PatternFlat,
        ("flat", "arrangement", "rationalized"),
        ("arrangement", "rationalized"),
        {"flat": FlatX(TAU)},
        {"flat": FlatX(TAU), "arrangement": Arrangement([(1, 0), (0, 1)])},
    ),
    (
        PatternSubspace,
        ("subspace", "pair"),
        ("pair",),
        {"subspace": Y, "pair": LinePlanePair((1, 1), (1, 0))},
        {"subspace": Y},
    ),
    (
        Pattern,
        ("flats", "subspaces", "matrix", "certificate"),
        (),
        {"flats": FLATS, "subspaces": SUBSPACES, "matrix": ((1,),), "certificate": ()},
        {"flats": FLATS, "subspaces": SUBSPACES, "matrix": ((-1,),), "certificate": ()},
    ),
    # these write their own `__init__`, which normalizes what it is given
    (ProjPoint, ("rep",), (), {"rep": (2, 4)}, {"rep": (1, -2)}),
    (ProjHyperplane, ("functional",), (), {"functional": (3, -3)}, {"functional": (1, 2)}),
    (
        Arrangement,
        ("points",),
        (),
        {"points": [(1, 0), (0, 1)]},
        {"points": [(1, 1), (0, 1)]},
    ),
    (
        LinePlanePair,
        ("line", "plane"),
        (),
        {"line": (1, 1), "plane": (1, 0)},
        {"line": (1, 1), "plane": (0, 1)},
    ),
    (
        Flag,
        ("subspaces",),
        (),
        {"subspaces": [QMatrix.from_columns([(1, 0, 0)])]},
        {"subspaces": [QMatrix.from_columns([(0, 1, 0)])]},
    ),
    (DecompSphere, ("dims",), (), {"dims": (1, 2)}, {"dims": (2, 1)}),
]
OWN_INIT = {ProjPoint, ProjHyperplane, Arrangement, LinePlanePair, Flag, DecompSphere}

IDS = [case[0].__name__ for case in CASES]
# a Reducible certificate whose witness is a polynomial factor
CASES.append(
    (
        IrredCertificate,
        ("verdict", "witness", "patterns"),
        (),
        {"verdict": IrredVerdict.REDUCIBLE, "witness": QPoly([1, 0, 1]), "patterns": ()},
        {"verdict": IrredVerdict.REDUCIBLE, "witness": QPoly([1, 1]), "patterns": ()},
    )
)
IDS.append("IrredCertificate-QPoly")


@functools.cache
def _twin(cls, fields, defaults):
    spec = [
        (f, object, dataclasses.field(default=None)) if f in defaults else (f, object)
        for f in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _pair(cls, fields, defaults, kwargs):
    """A record from keyword arguments, and its twin holding the same values."""
    record = cls(**kwargs)
    return record, _twin(cls, fields, defaults)(**{f: getattr(record, f) for f in fields})


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_fields_are_set_in_declaration_order(cls, fields, defaults, one, other):
    assert list(vars(cls(**one))) == list(fields)
    assert cls.__match_args__ == fields


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_equality_and_hash_match_the_twin(cls, fields, defaults, one, other):
    a, twin_a = _pair(cls, fields, defaults, one)
    b, twin_b = _pair(cls, fields, defaults, other)
    again, twin_again = _pair(cls, fields, defaults, one)
    assert (a == again, a != again) == (True, False)
    assert (twin_a == twin_again, twin_a != twin_again) == (True, False)
    assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b) == (False, True)
    assert hash(a) == hash(again) == hash(twin_a) == hash(twin_again)
    assert hash(b) == hash(twin_b)
    assert a != twin_a and a.__eq__(twin_a) is NotImplemented
    # equal hashes, so a set of records iterates as the twins' set does
    assert [vars(r) for r in {b, a, again}] == [vars(t) for t in {twin_b, twin_a, twin_again}]


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_repr_matches_the_twin(cls, fields, defaults, one, other):
    a, twin_a = _pair(cls, fields, defaults, one)
    assert repr(a) == repr(twin_a)


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_constructor_matches_the_twin(cls, fields, defaults, one, other):
    """Same parameter names, kinds and defaults, and positional arguments
    build what keyword arguments do."""
    if cls not in OWN_INIT:
        want = inspect.signature(_twin(cls, fields, defaults))
        got = inspect.signature(cls)
        assert [(p.name, p.kind, p.default) for p in got.parameters.values()] == [
            (p.name, p.kind, p.default) for p in want.parameters.values()
        ]
    positional = cls(*[one[f] for f in fields if f in one])
    assert positional == cls(**one)
    for f in defaults:
        assert getattr(cls(**{k: v for k, v in one.items() if k not in defaults}), f) is None


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, fields, defaults, one, other):
    a, twin_a = _pair(cls, fields, defaults, one)
    before = dict(vars(a))
    for target in (a, twin_a):
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(target, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(target, name)
    assert vars(a) == before


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("cls, fields, defaults, one, other", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, defaults, one, other):
    """A record is copied and pickled through its `__dict__`, as a frozen
    dataclass is. Every field value here copies and pickles, matrices and
    polynomials included, so every record must."""
    a = cls(**one)
    for trip in (copy.copy, copy.deepcopy, _pickled):
        made = trip(a)
        assert type(made) is cls and made == a and hash(made) == hash(a)
        with pytest.raises(AttributeError):
            setattr(made, fields[0], None)
