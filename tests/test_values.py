"""Value semantics of udyn's frozen value classes (``udyn._value.Value``):
equality by type and fields, the field-tuple hash, the dataclass repr,
frozen fields, and caches that stay out of all three.  Also guards the
import cost those classes were moved off ``@dataclass`` for."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import udyn
from udyn import exactnum, radiusmaps
from udyn._value import Value
from udyn.exactnum import (
    InvalidArgument,
    QuadExt,
    SqrtClass,
    SqrtKind,
    TruncatedPadic,
    TruncatedQuad,
)
from udyn.mapengine import (
    Completed,
    DegenerateParams,
    FixedPointInfo,
    MapParams,
    PoleHitAt,
    PrecisionExhaustedAt,
    SizeBudgetAt,
    fixed_points,
    validate_params,
)
from udyn.portrait import Claim, Region
from udyn.radiusmaps import (
    Cycle,
    EventuallyConstantAt,
    EventuallyInLambda,
    ExceptionalSet,
    FixedAt,
    FixSet,
    HorizonExceeded,
    LambdaInterval,
    NeedsCriticalValue,
    Radius,
    RadiusKind,
    RadiusMapSpec,
    RadiusOrbitResult,
    RadiusRay,
    ToInfinity,
    ToZero,
    TwoCycleRegion,
    _RadExpr,
    fix_set,
    lambda_interval,
    radius_orbit,
)

_R = Radius.from_exponent(3, -3)
_LAMBDA_SPEC = RadiusMapSpec(3, 1, 0, 3)

# One builder per value class; each call builds a fresh, equal instance.
BUILDERS = {
    SqrtClass: lambda: SqrtClass(SqrtKind.RATIONAL_SQUARE, F(3)),
    QuadExt: lambda: QuadExt(1, F(1, 2), 3),
    TruncatedPadic: lambda: TruncatedPadic(3, 1, 5, 8),
    TruncatedQuad: lambda: TruncatedQuad.from_quad(QuadExt(1, 2, 3), 3, 8),
    MapParams: lambda: validate_params(3, 9, 3, 1),
    FixedPointInfo: lambda: fixed_points(validate_params(3, 3, 1, 9))[1],
    Completed: lambda: Completed(3),
    PoleHitAt: lambda: PoleHitAt(3),
    PrecisionExhaustedAt: lambda: PrecisionExhaustedAt(3),
    SizeBudgetAt: lambda: SizeBudgetAt(3),
    Region: lambda: Region("sphere", _R),
    Claim: lambda: Claim.make("T1.2.3", "fp-location", Region("ball", _R), which="x1"),
    Radius: lambda: Radius.from_exponent(3, -3),
    RadiusMapSpec: lambda: RadiusMapSpec(3, 2, -1, 0),
    ToZero: ToZero,
    ToInfinity: ToInfinity,
    FixedAt: lambda: FixedAt(_R),
    Cycle: lambda: Cycle((_R, Radius.from_exponent(3, 1))),
    EventuallyConstantAt: lambda: EventuallyConstantAt(_R, 2),
    NeedsCriticalValue: lambda: NeedsCriticalValue("b"),
    HorizonExceeded: HorizonExceeded,
    TwoCycleRegion: lambda: TwoCycleRegion(lambda_interval(_LAMBDA_SPEC)),
    EventuallyInLambda: lambda: EventuallyInLambda(lambda_interval(_LAMBDA_SPEC)),
    RadiusOrbitResult: lambda: radius_orbit(_R, RadiusMapSpec(3, 2, -1, 0)),
    ExceptionalSet: lambda: ExceptionalSet("B", 3, 0, 4),
    RadiusRay: lambda: RadiusRay(_R, "below"),
    FixSet: lambda: fix_set(RadiusMapSpec(3, 0, 0, 2)),
    _RadExpr: lambda: _RadExpr(3, F(1), F(2)),
    LambdaInterval: lambda: lambda_interval(_LAMBDA_SPEC),
}

CLASSES = list(BUILDERS)


def test_every_value_class_has_a_builder():
    assert len(CLASSES) == 29
    assert all(issubclass(cls, Value) and cls.__slots__ is not None for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_and_type_are_equal(cls):
    one, two = BUILDERS[cls](), BUILDERS[cls]()
    assert type(one) is cls and one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    value = BUILDERS[cls]()
    assert hash(value) == hash(tuple(getattr(value, name) for name in cls._fields))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = BUILDERS[cls]()
    before = repr(value)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert repr(value) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_rebuild_the_value(cls):
    value = BUILDERS[cls]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_types_with_equal_fields_differ():
    assert ToZero() != ToInfinity() and ToZero() == ToZero()
    assert Completed(3) != PoleHitAt(3)
    assert PoleHitAt(3) != PrecisionExhaustedAt(3) != SizeBudgetAt(3)
    assert FixedAt(_R) != EventuallyConstantAt(_R, 0)
    assert Radius.from_exponent(3, 0) != Radius.from_exponent(5, 0)


def test_caches_stay_out_of_eq_hash_and_repr():
    params, fresh = validate_params(3, 9, 3, 1), validate_params(3, 9, 3, 1)
    spec, fresh_spec = RadiusMapSpec(3, 1, 0, 3), RadiusMapSpec(3, 1, 0, 3)
    walk, fresh_walk = radius_orbit(_R, spec), radius_orbit(_R, fresh_spec)
    before = [(hash(v), repr(v)) for v in (params, spec, walk)]
    params.radius_spec(), params.lifted(8), params.val_a
    spec.lambda_region, spec.spheres, spec.zones, spec.sphere_b()
    walk.trajectory
    assert {"_radius_spec", "_lifts", "val_a"} <= set(vars(params))
    assert {"lambda_region", "zones"} <= set(vars(spec)) and "trajectory" in vars(walk)
    assert [(hash(v), repr(v)) for v in (params, spec, walk)] == before
    assert (params, spec, walk) == (fresh, fresh_spec, fresh_walk)


def test_repr_is_the_dataclass_repr():
    # recorded from the @dataclass(frozen=True) definitions these replace
    assert repr(_R) == "Radius(p=3, kind=<RadiusKind.FINITE: 'fin'>, q2=-3)"
    assert repr(Radius.zero(3)) == "Radius(p=3, kind=<RadiusKind.ZERO: 'zero'>, q2=0)"
    assert repr(FixedAt(_R)) == (
        "FixedAt(radius=Radius(p=3, kind=<RadiusKind.FINITE: 'fin'>, q2=-3))"
    )
    assert repr(validate_params(3, 9, 3, 1)) == (
        "MapParams(p=3, a=Fraction(9, 1), b=Fraction(3, 1), c=Fraction(1, 1), "
        "sqrt_mode=SqrtClass(kind=<SqrtKind.RATIONAL_SQUARE: 'rational-square'>, "
        "root=Fraction(3, 1)))"
    )
    assert repr(ToZero()) == "ToZero()"


def test_fast_constructors_build_the_validated_value():
    # Radius.from_exponent, TruncatedPadic._of, TruncatedQuad._of and
    # QuadExt._new fill an unfrozen twin and seal it as the real class
    built = [
        (Radius.from_exponent(3, -3), Radius(3, RadiusKind.FINITE, -3)),
        (TruncatedPadic._of(3, 1, 5, 8), TruncatedPadic(3, 1, 5, 8)),
        (QuadExt(1, 2, 3)._new(F(1), F(-2)), QuadExt(1, -2, 3)),
    ]
    t = TruncatedQuad.from_quad(QuadExt(1, 2, 3), 3, 8)
    built.append((t._new(t.u, -t.v), TruncatedQuad(t.u, -t.v, t.a, t.rad)))
    for fast, slow in built:
        assert type(fast) is type(slow) and fast == slow and hash(fast) == hash(slow)
        with pytest.raises(AttributeError):
            setattr(fast, type(fast)._fields[0], None)
    assert t._new(t.u, t.v).norm == t.norm  # the twin kept the cache dict


def test_twins_store_through_the_c_slot():
    # __setattr__ and __delattr__ share a type slot: if a twin inherited
    # either from Value, each store would take the slow Python path
    twins = (
        exactnum._QuadExtBlank,
        exactnum._TruncatedPadicBlank,
        exactnum._TruncatedQuadBlank,
        radiusmaps._RadiusBlank,
    )
    for twin in twins:
        assert twin.__setattr__ is object.__setattr__
        assert twin.__delattr__ is object.__delattr__


def test_replace_runs_the_validation_again():
    spec = RadiusMapSpec(3, 2, 1, 0)
    assert spec._replace(val_c=2) == RadiusMapSpec(3, 2, 1, 2)
    params = validate_params(3, 9, 3, 1)
    moved = params._replace(a=F(2))
    assert moved.sqrt_mode.kind is SqrtKind.QP_NONSQUARE and moved.b == params.b
    with pytest.raises(DegenerateParams):
        params._replace(a=1)
    with pytest.raises(InvalidArgument):
        RadiusRay(_R, "below")._replace(side="left")
    assert ToZero()._replace() == ToZero()
    assert RadiusMapSpec._fields == ("p", "val_a", "val_b", "val_c")
    assert MapParams._fields == ("p", "a", "b", "c", "sqrt_mode")


_COUNT_DATACLASSES = """
import dataclasses
made = []
process = dataclasses._process_class
def counted(cls, *args, **kwargs):
    made.append(cls.__name__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counted
import udyn.cli
print(" ".join(made))
"""


def test_importing_the_cli_builds_only_the_four_kept_dataclasses():
    # each @dataclass costs 0.4-1 ms of import: only the records that
    # callers pass to dataclasses.replace stay dataclasses
    src = str(Path(udyn.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_DATACLASSES],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    made = out.stdout.split()
    assert len(made) <= 4, made
    assert set(made) <= {"OrbitRecord", "PhasePortrait", "CheckEntry", "VerificationReport"}
