"""Closed-form threshold quantities and the phase-region classifier.

Everything here is arithmetic in the ``(a, b, s)`` parameters of a
logarithmic-degree correlated block model: ``a`` and ``b`` are the intra- and
inter-community edge-probability coefficients (per ``ln n / n``), ``s`` the
edge-retention probability of each child graph, and ``K`` the number of
correlated children.

Seven scalar conditions (each a strict ``> 1`` comparison) describe when the
various tasks become feasible: recovering communities from one child alone,
matching a pair of children, recovering from unions of two or all K children,
and the combined match-then-recover pipelines.  The classifier partitions the
plane at fixed ``s`` (with K = 3) into ten regions according to which of
those tasks are possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .graphs import _require_integer, _require_real

__all__ = [
    "chernoff_hellinger",
    "connectivity_param",
    "ThresholdPoint",
    "Condition",
    "ConditionSet",
    "condition_set",
    "RegionLabel",
    "classify_region",
]


def chernoff_hellinger(a: float, b: float) -> float:
    """Divergence ``(sqrt(a) - sqrt(b))^2 / 2`` governing exact recovery; ``a, b >= 0``."""
    return _chernoff_hellinger(_require_real("a", a, 0), _require_real("b", b, 0))


def _chernoff_hellinger(a: float, b: float) -> float:
    return (math.sqrt(a) - math.sqrt(b)) ** 2 / 2.0


def connectivity_param(a: float, b: float) -> float:
    """Average-degree coefficient ``(a + b) / 2`` governing matching; ``a, b >= 0``."""
    return _connectivity_param(_require_real("a", a, 0), _require_real("b", b, 0))


def _connectivity_param(a: float, b: float) -> float:
    return (a + b) / 2.0


@dataclass(frozen=True)
class ThresholdPoint:
    """One point of the phase diagram.

    ``a`` and ``b`` are finite and positive (``a = b`` allowed) and ``s``
    lies in [0, 1], all stored as floats; a bool or a string is rejected.
    ``K`` is a whole number of at least 1; one given as a float, such as
    3.0, is stored as the int.
    """

    a: float
    b: float
    s: float
    K: int = 3

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), positive=True))
        object.__setattr__(self, "s", _require_real("s", self.s, 0, 1))
        object.__setattr__(self, "K", _require_integer("K", self.K, 1))


@dataclass(frozen=True)
class Condition:
    """A threshold expression and whether it strictly exceeds 1."""

    value: float

    @property
    def holds(self) -> bool:
        return self.value > 1.0


@dataclass(frozen=True)
class ConditionSet:
    """The seven threshold conditions evaluated at one parameter point.

    ``single``     recovery from one child alone: s * D+(a, b).
    ``pair_match`` exact matching of a pair of children: s^2 * Tc(a, b).
    ``union_two``  recovery from the aligned union of two children.
    ``rec_two``    recovery from two children via matching then union.
    ``union_all``  recovery from the aligned union of all K children.
    ``match_all``  exact matching of all K children (anchor-centred).
    ``rec_all``    recovery from all K children via matching then union.
    """

    single: Condition
    pair_match: Condition
    union_two: Condition
    rec_two: Condition
    union_all: Condition
    match_all: Condition
    rec_all: Condition

    def as_dict(self) -> dict[str, Condition]:
        return {
            "single": self.single,
            "pair_match": self.pair_match,
            "union_two": self.union_two,
            "rec_two": self.rec_two,
            "union_all": self.union_all,
            "match_all": self.match_all,
            "rec_all": self.rec_all,
        }


def condition_set(point: ThresholdPoint) -> ConditionSet:
    """Evaluate all seven threshold expressions at ``point``."""
    a, b, s, K = point.a, point.b, point.s, point.K
    # The point has checked a and b already.
    dp = _chernoff_hellinger(a, b)
    tc = _connectivity_param(a, b)
    keep_all = 1.0 - (1.0 - s) ** K
    keep_rest = 1.0 - (1.0 - s) ** (K - 1)
    return ConditionSet(
        single=Condition(s * dp),
        pair_match=Condition(s * s * tc),
        union_two=Condition((1.0 - (1.0 - s) ** 2) * dp),
        rec_two=Condition(s * s * tc + s * (1.0 - s) * dp),
        union_all=Condition(keep_all * dp),
        match_all=Condition(s * keep_rest * tc),
        rec_all=Condition(s * keep_rest * tc + s * (1.0 - s) ** (K - 1) * dp),
    )


class RegionLabel(str, Enum):
    """The ten phase-region labels at K = 3, plus a numeric boundary guard."""

    GREEN = "Green"
    CYAN = "Cyan"
    DARK_BLUE = "DarkBlue"
    PINK = "Pink"
    VIOLET = "Violet"
    LIGHT_GREEN = "LightGreen"
    GREY = "Grey"
    YELLOW = "Yellow"
    ORANGE = "Orange"
    RED = "Red"
    BOUNDARY = "Boundary"


def _region_flags(holds: dict[str, bool]) -> dict[RegionLabel, bool]:
    """Truth value of each of the ten region predicates, independently.

    ``holds`` has the seven condition verdicts, keyed like
    :meth:`ConditionSet.as_dict`.  The predicates are mutually exclusive and
    exhaustive away from exact threshold boundaries; this is a consequence
    of the condition implications (single => union_two and rec_two;
    pair_match => rec_two and match_all; union_two => union_all; rec_two =>
    rec_all; match_all => rec_all) and is itself exercised by the test
    suite.
    """
    sg, pm, u2, r2 = holds["single"], holds["pair_match"], holds["union_two"], holds["rec_two"]
    uk, mk, rk = holds["union_all"], holds["match_all"], holds["rec_all"]
    two = u2 and r2
    allk = uk and rk
    return {
        RegionLabel.GREEN: sg,
        RegionLabel.CYAN: (not sg) and pm and two,
        RegionLabel.DARK_BLUE: (not sg) and (not pm) and two,
        RegionLabel.PINK: (not two) and u2 and allk,
        RegionLabel.VIOLET: u2 and not allk,
        RegionLabel.LIGHT_GREEN: (not u2) and pm and allk,
        RegionLabel.GREY: (not u2) and (not pm) and mk and allk,
        RegionLabel.YELLOW: (not u2) and (not mk) and allk,
        RegionLabel.ORANGE: (not allk) and uk and (not u2),
        RegionLabel.RED: not uk,
    }


def classify_region(a: float, b: float, s: float, tol: float = 1e-9) -> RegionLabel:
    """Classify ``(a, b, s)`` into one of the ten K=3 phase regions.

    Every underlying condition is a strict ``> 1`` comparison.  When ``tol``
    is positive and any condition value comes within ``tol`` of 1, the point
    is labelled ``Boundary`` instead, since the region call would hinge on
    float noise.  ``tol=0`` disables the guard (used when exporting dense
    grids, where strict comparisons are taken at face value).  ``tol`` must
    be finite and non-negative.
    """
    tol = _require_real("tol", tol, 0)
    conditions = condition_set(ThresholdPoint(a=a, b=b, s=s, K=3)).as_dict()
    if tol > 0 and any(abs(c.value - 1.0) <= tol for c in conditions.values()):
        return RegionLabel.BOUNDARY
    flags = _region_flags({name: c.holds for name, c in conditions.items()})
    for label, hit in flags.items():
        if hit:
            return label
    raise RuntimeError(
        f"no region matched at a={a}, b={b}, s={s}"
    )  # pragma: no cover - the predicates are exhaustive
