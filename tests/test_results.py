import copy
import dataclasses
import gc
import inspect
import json
import math
import pickle
import tracemalloc

import pytest

import rdpc.results
from rdpc import (
    BinaryChannel,
    BinaryPairSource,
    ChannelStats,
    DomainError,
    GapProbe,
    GaussianPairSource,
    GaussianReconstruction,
    OracleResult,
    Region,
    SuiteResult,
    TradeoffPoint,
    Unit,
    VerifyReport,
    binary_channel_stats,
    binary_min_rate,
    gaussian_min_rate,
    rdc_binary,
    rdc_gaussian,
    rpc_gaussian,
)
from rdpc.closed_form import _rdc_gaussian_core

SRC = BinaryPairSource(a=0.3, p1=0.1)
GSRC = GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63)

# one instance of every result and report type, and the properties its
# to_dict adds to its fields
INSTANCES = [
    (BinaryChannel(0.2, 0.7), ()),
    (GaussianReconstruction(0.0, 0.5, 0.3), ()),
    (rdc_binary(SRC, 0.2, 0.6), ("feasible",)),
    (rpc_gaussian(GSRC, 0.2, -3.0), ("feasible",)),
    (binary_channel_stats(SRC, BinaryChannel(0.9, 0.2)), ()),
    (binary_min_rate(SRC, {"D": 0.3, "C": 0.6}, resolution=1e-2), ("feasible",)),
    (gaussian_min_rate(GSRC, {"D": 0.5, "C": -3.0}, sigma_steps=21, theta_steps=21),
     ("feasible",)),
    (SuiteResult("entropy", True, {"gap": 1e-17}, {"gap": 1e-12}), ()),
    (GapProbe("c=0.6", 0.31, 0.35, 0.04), ()),
    (VerifyReport(0, [SuiteResult("mgl", False, {"x": 2.0}, {"x": 1.0})],
                  [GapProbe("c=0.6", 0.31, 0.35, 0.04)]), ("all_passed",)),
]


def _plain(value):
    """True when value is built from JSON's own types only (no subclass,
    such as a str-valued enum)."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize(
    "obj, props", INSTANCES,
    ids=[type(o).__name__ + ("" if getattr(o, "feasible", True) else "-infeasible")
         for o, _ in INSTANCES],
)
def test_to_dict_is_the_fields_plus_the_documented_properties(obj, props):
    out = obj.to_dict()
    assert set(out) == {f.name for f in dataclasses.fields(obj)} | set(props)
    for name in props:
        assert out[name] is getattr(obj, name)
    for name in ("unit", "region"):
        if name in out:
            assert type(out[name]) is str and out[name] == getattr(obj, name).value
    assert _plain(out)
    json.dumps(out)


def test_feasible_follows_region_and_argmin():
    for region in Region:
        rate = math.nan if region is Region.INFEASIBLE else 0.5
        pt = TradeoffPoint(rate=rate, unit=Unit.NATS, region=region, c=0.1)
        assert pt.feasible is (region is not Region.INFEASIBLE)
    assert not rdc_gaussian(GSRC, 0.5, -3.0).feasible
    empty = OracleResult(rate=math.nan, unit=Unit.BITS, argmin=None, grid_resolution=0.01,
                         refined=False, constraints={"C": 0.1})
    assert empty.feasible is False
    assert dataclasses.replace(empty, rate=0.2, argmin=BinaryChannel(1.0, 0.0)).feasible
    with pytest.raises(TypeError):
        TradeoffPoint(rate=0.5, unit=Unit.NATS, feasible=True,
                      region=Region.ZERO_RATE, c=0.1)


# one value of each type that every closed-form call builds, with its repr
# and its fields as the generated dataclass methods give them
POINT = TradeoffPoint(rate=0.5, unit=Unit.BITS, region=Region.DISTORTION_LIMITED, c=0.6,
                      d=0.2, witness=BinaryChannel(0.9, 0.2))
VALUES = [
    (BinaryChannel(0.2, 0.7), "BinaryChannel(p_a=0.2, p_b=0.7)", {"p_a": 0.2, "p_b": 0.7}),
    (GaussianReconstruction(0.0, 0.5, 0.3),
     "GaussianReconstruction(mu_xh=0.0, var_xh=0.5, cov_xxh=0.3)",
     {"mu_xh": 0.0, "var_xh": 0.5, "cov_xxh": 0.3}),
    (POINT,
     "TradeoffPoint(rate=0.5, unit=<Unit.BITS: 'bits'>, "
     "region=<Region.DISTORTION_LIMITED: 'distortion_limited'>, c=0.6, d=0.2, p=None, "
     "witness=BinaryChannel(p_a=0.9, p_b=0.2))",
     {"rate": 0.5, "unit": Unit.BITS, "region": Region.DISTORTION_LIMITED, "c": 0.6,
      "d": 0.2, "p": None, "witness": BinaryChannel(0.9, 0.2)}),
]


@pytest.mark.parametrize("obj, text, attrs", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_results_are_frozen_hashable_values(obj, text, attrs):
    names = [f.name for f in dataclasses.fields(obj)]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert repr(obj) == text
    assert vars(obj) == attrs and list(vars(obj)) == names
    twin = type(obj)(**attrs)
    assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    assert hash(obj) == hash(tuple(attrs.values()))
    assert dataclasses.astuple(obj) == tuple(
        dataclasses.astuple(v) if dataclasses.is_dataclass(v) else v for v in attrs.values())
    last = next(name for name in reversed(names) if type(attrs[name]) is float)
    other = dataclasses.replace(obj, **{last: 0.0})
    assert other != obj and vars(other) == attrs | {last: 0.0}
    assert other.to_dict() == obj.to_dict() | {last: 0.0}
    for clone in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and clone is not obj and vars(clone) == attrs
        assert repr(clone) == text and clone.to_dict() == obj.to_dict()
    assert obj != tuple(attrs.values())


@pytest.mark.parametrize("build, message", [
    (lambda: BinaryChannel(1.5, 0.2),
     "channel probabilities out of range: BinaryChannel(p_a=1.5, p_b=0.2)"),
    (lambda: BinaryChannel(0.2, math.nan),
     "channel probabilities out of range: BinaryChannel(p_a=0.2, p_b=nan)"),
    (lambda: GaussianReconstruction(0.0, -1.0, 0.0), "variance must be nonnegative: -1.0"),
    (lambda: GaussianReconstruction(0.0, 1.0, math.inf),
     "reconstruction parameters must be finite: "
     "GaussianReconstruction(mu_xh=0.0, var_xh=1.0, cov_xxh=inf)"),
    (lambda: TradeoffPoint(math.nan, Unit.NATS, Region.ZERO_RATE, 0.1),
     "feasible point needs a rate >= 0: nan"),
    (lambda: TradeoffPoint(rate=-0.1, unit=Unit.BITS, region=Region.CLASSIFICATION_LIMITED,
                           c=0.6, p=0.0), "feasible point needs a rate >= 0: -0.1"),
    (lambda: dataclasses.replace(POINT, rate=-1.0), "feasible point needs a rate >= 0: -1.0"),
    (lambda: dataclasses.replace(BinaryChannel(0.2, 0.7), p_b=-0.5),
     "channel probabilities out of range: BinaryChannel(p_a=0.2, p_b=-0.5)"),
], ids=["channel", "channel-nan", "variance", "recon-inf", "point-nan", "point-negative",
        "replace-point", "replace-channel"])
def test_results_refuse_out_of_range_fields(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_an_own_init_takes_exactly_the_fields():
    # the generated __init__ is compiled from a string; an own one must bind
    # the same parameters, so keyword calls, replace() and pickling keep working
    own = [cls for cls in vars(rdpc.results).values()
           if dataclasses.is_dataclass(cls) and cls.__init__.__code__.co_filename != "<string>"]
    assert own == [BinaryChannel, GaussianReconstruction, TradeoffPoint]
    for cls in own:
        params = list(inspect.signature(cls.__init__).parameters.values())
        assert params[0].name == "self"
        assert [(p.name, p.kind, p.default, p.annotation) for p in params[1:]] == [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
             inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default, f.type)
            for f in dataclasses.fields(cls)]


@dataclasses.dataclass(frozen=True)
class _Reconstruction:
    mu_xh: float
    var_xh: float
    cov_xxh: float


@dataclasses.dataclass(frozen=True)
class _Point:
    rate: float
    unit: Unit
    region: Region
    c: float
    d: float | None = None
    p: float | None = None
    witness: _Reconstruction | None = None


def _retained_bytes(build, n=2000):
    """tracemalloc bytes per result of ``build(i)``, with all n kept alive;
    the lesser of two runs, since a first run reads up to 2 bytes high.

    The collector is off in the window. A collection there runs the
    ``gc.callbacks``, and hypothesis registers one that allocates as it
    times the collection; whether a collection fell in the window
    depended on the allocations before the test and moved a run by up to
    88 bytes."""
    sizes = []
    for _ in range(2):
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [build(i) for i in range(n)]
            sizes.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(kept) == n
        del kept
    return min(sizes) / n


def test_a_kept_result_costs_no_more_than_a_generated_init():
    # a twin built the way rdc_gaussian builds its result, with the generated
    # __init__; an own __init__ that wrote self.__dict__ would give every
    # instance a materialized dict, about 140 bytes more each
    c = GSRC.h_s - 0.2
    ds = [0.1 + i * 1e-4 for i in range(2000)]

    def twin(i):
        rate, region, v, _ = _rdc_gaussian_core(GSRC, ds[i], c)
        return _Point(rate, Unit.NATS, region, c, ds[i], None, _Reconstruction(GSRC.mu_x, v, v))

    assert rdc_gaussian(GSRC, ds[0], c).witness is not None
    assert _retained_bytes(lambda i: rdc_gaussian(GSRC, ds[i], c)) <= _retained_bytes(twin)
