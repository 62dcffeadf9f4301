"""The public record classes behave as frozen value objects: equality
and hashing by field, Name(field=value, ...) repr, no assignment or
deletion, keyword construction with the documented defaults, the
validation messages, and pickle and copy round trips."""

import copy
import pickle
import re

import pytest

from malcevlab import (App, BiternaryPair, BiternarySearchResult,
                       CheckResult, ClassDefinition, Congruence,
                       Equasigroup, Equation, FiniteAlgebra, FreeAlgebra,
                       LatinSquare, MalcevSearchResult, MembershipReport,
                       PermutabilityReport, PredicateAtom, Quasiidentity,
                       RectificationReport, Replica, Signature,
                       TranslationGroup, UniversalPropertyReport, Var)
from malcevlab.errors import Record

SIG = Signature((("mul", 2), ("e", 0)), (("p", 1),))


def z2():
    return FiniteAlgebra(SIG, 2, {"mul": (0, 1, 1, 0), "e": (0,)},
                         {"p": (True, False)}, ("a", "b"))


def term():
    return App("mul", (Var(0), App("e")))


# one builder per public record class; each call builds fresh objects
SAMPLES = {
    Signature: lambda: Signature((("mul", 2),), (("p", 1),)),
    Var: lambda: Var(3),
    App: term,
    Equation: lambda: Equation(term(), Var(0)),
    PredicateAtom: lambda: PredicateAtom("p", (Var(0),)),
    Quasiidentity: lambda: Quasiidentity(
        (PredicateAtom("p", (Var(1),)),), Equation(term(), Var(0))),
    CheckResult: lambda: CheckResult(False, (1, 0)),
    FiniteAlgebra: z2,
    Congruence: lambda: Congruence(z2(), (0, 0)),
    ClassDefinition: lambda: ClassDefinition((z2(),), True, 100, ("z2.alg",)),
    FreeAlgebra: lambda: FreeAlgebra(z2(), 1, (1,), ((0, (1,)),),
                                     ((0,), (1,)),
                                     (("const", "e"), ("gen", 0))),
    UniversalPropertyReport: lambda: UniversalPropertyReport(
        False, 1, 2, ("target 0: no extension",)),
    Replica: lambda: Replica(z2(), (0, 1), 2),
    MembershipReport: lambda: MembershipReport(
        False, 1, ("unseparated", 0, 1)),
    MalcevSearchResult: lambda: MalcevSearchResult(term(), True, 7, 2,
                                                   "table"),
    PermutabilityReport: lambda: PermutabilityReport(
        None, False, 2, ((Congruence(z2(), (0, 1)),
                          Congruence(z2(), (0, 0))),), "consistent"),
    BiternaryPair: lambda: BiternaryPair(term(), Var(2)),
    BiternarySearchResult: lambda: BiternarySearchResult(
        BiternaryPair(term(), Var(2)), False, 9, 4),
    LatinSquare: lambda: LatinSquare(((0, 1), (1, 0))),
    Equasigroup: lambda: Equasigroup(2, (0, 1, 1, 0), (0, 1, 1, 0),
                                     (0, 1, 1, 0), 0, None),
    TranslationGroup: lambda: TranslationGroup(
        ((1, 0),), frozenset({(0, 1), (1, 0)}), True, False),
    RectificationReport: lambda: RectificationReport(0, True, True, True,
                                                     False),
}
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def test_every_record_class_has_a_sample():
    assert set(SAMPLES) == set(Record.__subclasses__())
    assert len(SAMPLES) == 22


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert a != tuple(getattr(a, name) for name in cls.__slots__)
    try:
        expected = hash(a)
    except TypeError:  # a dict field, as a FiniteAlgebra's tables
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_every_field(cls):
    record = SAMPLES[cls]()
    fields = ", ".join(f"{name}={getattr(record, name)!r}"
                       for name in cls.__slots__)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_literals():
    assert repr(Var(0)) == "Var(index=0)"
    assert repr(App("e")) == "App(op='e', args=())"
    assert repr(CheckResult(True)) == "CheckResult(holds=True, witness=None)"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = SAMPLES[cls]()
    for name in cls.__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction_matches_positional(cls):
    record = SAMPLES[cls]()
    fields = {name: getattr(record, name) for name in cls.__slots__}
    assert cls(**fields) == record
    assert cls(*fields.values()) == record


def test_defaults():
    assert Signature((("mul", 2),)).preds == ()
    assert App("e").args == ()
    assert CheckResult(True).witness is None
    assert FreeAlgebra(z2(), 1, (1,), (), (), ()).relations == ()
    assert MalcevSearchResult(None, False, 1, 2).exhausted is None
    assert BiternarySearchResult(None, False, 1, 2).exhausted is None
    assert z2().labels == ("a", "b")
    assert FiniteAlgebra(Signature((("e", 0),)), 1, {"e": (0,)}).labels \
        is None
    q = Quasiidentity(premises=(Equation(Var(0), Var(2)),),
                      conclusion=Equation(Var(1), Var(0)))
    assert q.variable_count == 3
    assert Quasiidentity((), Equation(App("e"), App("e"))).variable_count == 0


def test_omitted_predicate_tables_are_not_shared():
    sig = Signature((("e", 0),))
    a = FiniteAlgebra(sig, 1, {"e": (0,)})
    b = FiniteAlgebra(sig=sig, size=1, op_tables={"e": (0,)})
    assert a.pred_tables == {} and b.pred_tables == {}
    assert a.pred_tables is not b.pred_tables


@pytest.mark.parametrize("build, message", [
    (lambda: Var(-1), "variable index must be >= 0"),
    (lambda: Signature((("x0", 1),)), "bad symbol name 'x0'"),
    (lambda: Signature((("f", -1),)), "negative arity for 'f'"),
    (lambda: Signature((("f", 1),), (("f", 1),)), "duplicate symbol 'f'"),
    (lambda: FiniteAlgebra(SIG, 0, {"mul": (), "e": (0,)}, {"p": ()}),
     "carrier must be nonempty"),
    (lambda: FiniteAlgebra(SIG, 2, {"mul": (0, 1, 1, 2), "e": (0,)},
                           {"p": (True, False)}),
     "table for 'mul' not closed over carrier"),
    (lambda: Congruence(z2(), (1, 1)),
     "block ids must be least block members"),
    (lambda: Congruence(z2(), (0,)), "partition must cover the carrier"),
    (lambda: Quasiidentity((), Equation(Var(0), Var(2))),
     "variable indices not dense, missing [1]"),
    (lambda: Quasiidentity((), Equation(Var(0), Var(1)), 1),
     "variable index out of range for variable_count"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_congruences_compare_by_blocks_alone():
    a, b = z2(), z2()
    assert a is not b
    theta, xi = Congruence(a, (0, 0)), Congruence(b, (0, 0))
    assert theta == xi and hash(theta) == hash(xi)
    assert theta != Congruence(a, (0, 1))
    assert len({theta, xi, Congruence(b, (0, 1))}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(cls):
    record = SAMPLES[cls]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == repr(record)
