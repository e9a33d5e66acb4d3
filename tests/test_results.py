import dataclasses
import json
import math

import pytest

from rdpc import (
    BinaryChannel,
    BinaryPairSource,
    ChannelStats,
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
                         refined=False, feasible_points=0, constraints={"C": 0.1})
    assert empty.feasible is False
    assert dataclasses.replace(empty, rate=0.2, argmin=BinaryChannel(1.0, 0.0)).feasible
    with pytest.raises(TypeError):
        TradeoffPoint(rate=0.5, unit=Unit.NATS, feasible=True,
                      region=Region.ZERO_RATE, c=0.1)
