"""The value records keep the behaviour of frozen dataclasses: equality
and hashing by fields, the same repr, immutability, copies and pickles,
and constructors that take the fields in order."""

import copy
import inspect
import pickle

import pytest

from endcalc.classify import (
    BoundsReport,
    Budget,
    Character,
    ClassificationReport,
    GeneratorImage,
    ObstructionWitness,
    SelfSimilarity,
    TNGVerdict,
    ValidationResult,
    Verdict,
    classify,
)
from endcalc.dsl import SourceSpan, parse
from endcalc.endspace import (
    InvariantBundle,
    Record,
    SurfaceSpec,
)
from endcalc.flux import (
    FiniteExcluded,
    Normalizer,
    PeriodicExcluded,
)
from conftest import CANTOR_LEAF, FLUTE

_TEXT = "root omega + 1 * 2\nroot acc(genus,[])\n"

# (build a record, a record of the same class with other values)
RECORDS = [
    (lambda: ValidationResult((), ("m",), None),
     ValidationResult(("d",), (), None)),
    (lambda: Character("FLUX", z="puncture", pair=("a", "b")),
     Character("FLUX", z="puncture", pair=("b", "a"))),
    (lambda: GeneratorImage("half_twist[a]", "half_twist", (1, 0)),
     GeneratorImage("half_twist[a]", "half_twist", (0, 1))),
    (lambda: classify(parse(_TEXT)).verdict.witness,
     classify(parse("root omega + 1 * 2\nroot acc(genus,[]) * 2\n"))
     .verdict.witness),
    (lambda: TNGVerdict(Verdict.YES, "rokhlin", notes=("n",)),
     TNGVerdict(Verdict.YES, "rokhlin")),
    (lambda: Budget(1, 0, 2), Budget(1, 0, 3)),
    (lambda: classify(parse(_TEXT)).bounds,
     classify(parse("root omega + 1\n")).bounds),
    (lambda: classify(parse(_TEXT)),
     classify(parse("root omega + 1 * 3\n"))),
    (lambda: SourceSpan(1, 2, 1, 3), SourceSpan(1, 2, 1, 4)),
    (lambda: SurfaceSpec(roots=((FLUTE, 1),), extra_punctures=2),
     SurfaceSpec(roots=((FLUTE, 1),), extra_genus=2)),
    (lambda: InvariantBundle(M=1, C=0, M_iso=1, G0=frozenset()),
     InvariantBundle(M=1, C=1, M_iso=1, G0=frozenset())),
    (lambda: FiniteExcluded((5, 0)), FiniteExcluded((0,))),
    (lambda: PeriodicExcluded(1, 3, (0,)), PeriodicExcluded(1, 3, (1,))),
    (lambda: Normalizer(FiniteExcluded((0,))),
     Normalizer(FiniteExcluded((0, 1)))),
]
IDS = [type(other).__name__ for _, other in RECORDS]


@pytest.mark.parametrize("build, other", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(build, other):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, name) for name in a._fields)
    assert hash(a) == hash(b) == hash(values)
    assert a != other and other != a
    assert a != values and a.__eq__(values) is NotImplemented


@pytest.mark.parametrize("build, other", RECORDS, ids=IDS)
def test_immutable(build, other):
    a = build()
    for name in type(a).__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("build, other", RECORDS, ids=IDS)
def test_copies_and_pickles_keep_every_slot(build, other):
    a = build()
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(a) and c == a and hash(c) == hash(a)
        for name in type(a).__slots__:
            assert getattr(c, name) == getattr(a, name)


# the records whose __init__ Record generates from _fields and _defaults
GENERATED = [ValidationResult, Character, GeneratorImage, ObstructionWitness,
             TNGVerdict, Budget, BoundsReport, ClassificationReport,
             SourceSpan, InvariantBundle, Normalizer]


def test_only_three_records_write_their_own_init():
    own = {SurfaceSpec, FiniteExcluded, PeriodicExcluded}
    assert set(Record.__subclasses__()) == set(GENERATED) | own


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_generated_init_takes_the_fields_in_order(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == cls._fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params
            if p.default is not p.empty} == cls._defaults
    required = [p.name for p in params if p.default is p.empty]
    init = cls.__name__ + ".__init__()"
    if required:
        with pytest.raises(TypeError) as exc:
            cls(*range(len(required) - 1))
        assert str(exc.value) == (
            "%s missing 1 required positional argument: %r"
            % (init, required[-1]))
    with pytest.raises(TypeError) as exc:
        cls(*range(len(required)), unexpected=0)
    assert str(exc.value) == (
        "%s got an unexpected keyword argument 'unexpected'" % init)


def test_reprs():
    assert repr(Budget(1, 0, 2)) == "Budget(shifts=1, dehn=0, handles=2)"
    assert (repr(SurfaceSpec(roots=((CANTOR_LEAF, 1),), extra_punctures=2))
            == "SurfaceSpec(roots=((EndType('cantor()'), 1),), "
               "subordinates=(), extra_punctures=2, extra_genus=0)")
    assert (repr(SourceSpan(1, 2, 1, 3))
            == "SourceSpan(line=1, column=2, start=1, end=3)")
    assert (repr(PeriodicExcluded(1, 3, (3, 4, 7)))
            == "PeriodicExcluded(threshold=1, period=3, residues=(0, 1))")
    assert repr(FiniteExcluded()) == "FiniteExcluded(values=())"


def test_spec_marker_survives_copies_and_pickles():
    parsed, built = parse(_TEXT), SurfaceSpec(roots=((FLUTE, 1),))
    assert parsed.similarity is not None and built.similarity is None
    for spec in (parsed, built):
        for c in (copy.copy(spec), copy.deepcopy(spec),
                  pickle.loads(pickle.dumps(spec))):
            assert c == spec and c.similarity is spec.similarity


def test_spec_marker_is_not_a_parameter():
    with pytest.raises(TypeError):
        SurfaceSpec(roots=((FLUTE, 1),), similarity=SelfSimilarity.UNIQUELY)


def test_excluded_sets_normalize_their_input():
    assert FiniteExcluded((5, 0, 5)).values == (0, 5)
    assert FiniteExcluded(iter([3, 1, 3])) == FiniteExcluded((1, 3))
    assert FiniteExcluded((0, 5)).contains(5)
    assert not FiniteExcluded((0, 5)).contains(1)
    assert PeriodicExcluded(2, 4, (1, 5, 9, -3)).residues == (1,)
    assert PeriodicExcluded(1, 3, (3, 4, 7)) == PeriodicExcluded(1, 3, (0, 1))


@pytest.mark.parametrize("args, message", [
    ((1, 0, (0,)), "period must be positive"),
    ((0, -1, (0,)), "period must be positive"),
    ((1, 2, (0, 1)), "excluding every residue leaves no indices to shift"),
    ((1, 3, ()), "periodic excluded set needs at least one residue"),
])
def test_periodic_excluded_rejects(args, message):
    with pytest.raises(ValueError) as exc:
        PeriodicExcluded(*args)
    assert str(exc.value) == message


def test_finite_excluded_rejects_unordered_values():
    with pytest.raises(TypeError):
        FiniteExcluded((1, "a"))
