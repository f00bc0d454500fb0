"""The benchmark's traced run wraps udyn functions by name: every span of
``perfbench/tracer.py`` must name a binding that exists, and the verifier
must call its check families through the names the tracer patches."""

from pathlib import Path

import pytest

from udyn import cli, exactnum, mapengine, oracle, portrait, radiusmaps
from udyn.exactnum import QuadExt, TruncatedQuad
from udyn.mapengine import validate_params

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = {m.__name__: m for m in (cli, exactnum, mapengine, oracle, portrait, radiusmaps)}


def _spans():
    """``SPANS`` of the tracer, read from its source without importing it,
    so no bytecode is written next to it."""
    namespace = {"__name__": "tracer_source"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SPANS"]


@pytest.mark.parametrize("name, home, attr", _spans(), ids=lambda v: str(v))
def test_every_traced_span_resolves(name, home, attr):
    owner = MODULES[home]
    if "." in attr:
        # the tracer reads a class attribute from the class's own namespace
        cls_name, meth = attr.split(".")
        target = vars(getattr(owner, cls_name))[meth]
        if isinstance(target, classmethod):
            target = target.__func__
    else:
        target = getattr(owner, attr)
    assert callable(target), (name, home, attr)


def test_run_verification_calls_each_family_by_its_module_name(monkeypatch):
    # the tracer patches module attributes; a family called through a
    # binding made at import would escape its span
    calls = []
    for family in ("check_fixed_points", "check_lemma1", "check_portrait", "check_radius_lemmas"):
        original = getattr(oracle, family)

        def counted(*args, _family=family, _original=original, **kwargs):
            calls.append(_family)
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, family, counted)
    oracle.run_verification(validate_params(3, 9, 3, 1), sample_count=4, horizon=6)
    assert calls == ["check_fixed_points", "check_lemma1", "check_portrait", "check_radius_lemmas"]


@pytest.mark.parametrize("row", [(3, "1/3", 1, 3), (3, 27, 1, 6)], ids=str)
def test_verifier_orbits_do_not_pass_through_the_traced_orbit(monkeypatch, row):
    # the tracer wraps every binding of mapengine.orbit, and its wrapper reads
    # exact coordinates off a QuadExt start; these two grid rows run sampled
    # orbits in Q_p(sqrt(a)), which must not reach orbit() by its module name
    params = validate_params(*row)
    want = oracle.run_verification(params, seed=0).to_dict()

    def refused(*args, **kwargs):
        raise AssertionError("a verifier orbit went through mapengine.orbit")

    monkeypatch.setattr(mapengine, "orbit", refused)
    assert oracle.run_verification(params, seed=0).to_dict() == want


def test_exact_quadratic_points_stay_apart_from_truncated_ones():
    # the tracer takes an orbit's domain from isinstance(start, QuadExt) and
    # then reads exact coordinates, and it wraps QuadExt's own __mul__ with
    # every alias of it, so __rmul__ must be that same object
    lifted = TruncatedQuad.from_quad(QuadExt(1, 1, 2), 3, 8)
    assert not isinstance(lifted, QuadExt)
    assert vars(QuadExt)["__rmul__"] is vars(QuadExt)["__mul__"]
