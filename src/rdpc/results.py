"""Shared result and carrier types.

These are deliberately dumb containers: construction validates cheap
structural invariants only. Each type serializes from its fields
(``dataclasses.asdict``), with enums as their string values and derived
facts such as ``feasible`` added as properties, into plain dicts for the
JSON/CSV layer. Infeasible results carry ``rate=nan`` (there is no
minimum over an empty set), never an exception.

``BinaryChannel``, ``GaussianReconstruction`` and ``TradeoffPoint``, built on
every closed-form call, define their own ``__init__``: it checks its arguments
and sets each field through a module-level ``object.__setattr__``. On Python
3.11 a ``TradeoffPoint`` then takes 1.1 us built positionally (1.4 us with
keywords) against 1.5 us through a generated ``__init__`` and
``__post_init__``, a ``BinaryChannel`` 0.5 us and a ``GaussianReconstruction``
0.6 us: about half of a closed-form call. They stay frozen, unslotted
dataclasses, so equality, hashing, ``repr``, ``replace``, pickling and
``FrozenInstanceError`` are the generated ones, and ``vars`` gives the fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Any, Union

from .errors import DomainError


class Unit(str, Enum):
    BITS = "bits"
    NATS = "nats"


class Region(str, Enum):
    """Which constraint is active at the optimum (or why there is none)."""

    DISTORTION_LIMITED = "distortion_limited"
    CLASSIFICATION_LIMITED = "classification_limited"
    PERCEPTION_LIMITED = "perception_limited"
    ZERO_RATE = "zero_rate"
    INFEASIBLE = "infeasible"


_INFEASIBLE = Region.INFEASIBLE
_set = object.__setattr__


@dataclass(frozen=True)
class BinaryChannel:
    """Conditional law of a binary reconstruction given the binary source.

    ``p_a = P(Xhat=0 | X=0)`` and ``p_b = P(Xhat=0 | X=1)``.
    """

    p_a: float
    p_b: float

    def __init__(self, p_a: float, p_b: float) -> None:
        _set(self, "p_a", p_a)
        _set(self, "p_b", p_b)
        if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
            raise DomainError(f"channel probabilities out of range: {self}")

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class GaussianReconstruction:
    """Jointly Gaussian reconstruction: mean, variance, and covariance
    with the source, all finite. ``var_xh`` may be zero (constant
    reconstruction)."""

    mu_xh: float
    var_xh: float
    cov_xxh: float

    def __init__(self, mu_xh: float, var_xh: float, cov_xxh: float) -> None:
        _set(self, "mu_xh", mu_xh)
        _set(self, "var_xh", var_xh)
        _set(self, "cov_xxh", cov_xxh)
        if not (math.isfinite(mu_xh) and math.isfinite(var_xh) and math.isfinite(cov_xxh)):
            raise DomainError(f"reconstruction parameters must be finite: {self}")
        if var_xh < 0.0:
            raise DomainError(f"variance must be nonnegative: {var_xh}")

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


Witness = Union[BinaryChannel, GaussianReconstruction]


@dataclass(frozen=True)
class TradeoffPoint:
    """A solved instance of one of the constrained rate programs.

    ``d`` / ``p`` are None for programs without that constraint. ``rate``
    is NaN when infeasible and may be ``inf`` at degenerate boundaries
    (exact reconstruction demanded); a feasible point with a NaN or
    negative rate is refused. ``feasible`` follows from ``region``.
    """

    rate: float
    unit: Unit
    region: Region
    c: float
    d: float | None = None
    p: float | None = None
    witness: Witness | None = None

    def __init__(self, rate: float, unit: Unit, region: Region, c: float,
                 d: float | None = None, p: float | None = None,
                 witness: Witness | None = None) -> None:
        _set(self, "rate", rate)
        _set(self, "unit", unit)
        _set(self, "region", region)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "witness", witness)
        if region is not _INFEASIBLE and not rate >= 0.0:
            raise DomainError(f"feasible point needs a rate >= 0: {rate}")

    @property
    def feasible(self) -> bool:
        return self.region is not _INFEASIBLE

    def to_dict(self) -> dict[str, Any]:
        return asdict(self) | {"unit": self.unit.value, "region": self.region.value,
                               "feasible": self.feasible}


@dataclass(frozen=True)
class ChannelStats:
    """Exact constraint functionals of one channel / reconstruction.

    ``perception`` is total variation for binary sources and KL for
    Gaussian ones; ``distortion`` is Hamming respectively mean-squared
    error. Sentinels: ``mutual_info`` and ``perception`` may be ``inf``.
    """

    mutual_info: float
    distortion: float
    perception: float
    cond_entropy_s: float
    unit: Unit

    def to_dict(self) -> dict[str, Any]:
        return asdict(self) | {"unit": self.unit.value}


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force constrained minimization.

    ``rate`` is recomputed from ``argmin`` after the search so the two
    always agree. ``constraints`` echoes the effective bounds used (a
    requested P=0 is executed as P<=1e-6). ``feasible`` follows from
    ``argmin``. For both families ``grid_resolution`` is the width of the
    final bracket, on the rate for the binary family and on the
    correlation t for the Gaussian; and ``refined`` is False.
    """

    rate: float
    unit: Unit
    argmin: Witness | None
    grid_resolution: float
    refined: bool
    constraints: dict[str, float]

    @property
    def feasible(self) -> bool:
        return self.argmin is not None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self) | {"unit": self.unit.value, "feasible": self.feasible}
