"""Threshold functionals, the seven conditions, and region classification."""

import math
from collections import Counter

import numpy as np
import pytest

from csbm.thresholds import (
    RegionLabel,
    _region_flags,
    chernoff_hellinger,
    classify_region,
    condition_set,
    connectivity_param,
)


def test_chernoff_hellinger_frozen_values():
    assert chernoff_hellinger(18.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert chernoff_hellinger(9.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert chernoff_hellinger(4.0, 4.0) == 0.0
    assert chernoff_hellinger(0.0, 4.0) == pytest.approx(2.0, abs=1e-12)


def test_connectivity_param_frozen_values():
    assert connectivity_param(9.0, 1.0) == pytest.approx(5.0, abs=1e-12)
    assert connectivity_param(4.0, 1.0) == pytest.approx(2.5, abs=1e-12)


def test_functionals_reject_negative_inputs():
    with pytest.raises(ValueError):
        chernoff_hellinger(-1.0, 2.0)
    with pytest.raises(ValueError):
        connectivity_param(1.0, -2.0)


def test_threshold_point_validation():
    # condition_set checks the point (a, b, s, K); each refusal names its argument.
    for point, name in (
        ((0.0, 1.0, 0.5), "a"), ((1.0, 0.0, 0.5), "b"), ((1.0, 1.0, 1.5), "s"),
        ((1.0, 1.0, 0.5, 0), "K"),
    ):
        with pytest.raises(ValueError, match=f"^{name} "):
            condition_set(*point)


def test_threshold_point_rejects_fractional_children():
    # (1 - s)^(K - 1) would be evaluated at K = 2.5 and give rec_all = 1.442.
    with pytest.raises(ValueError, match="^K must be an integer"):
        condition_set(9.0, 1.0, 0.4, K=2.5)


def test_threshold_point_stores_whole_float_children_as_int():
    assert condition_set(9.0, 1.0, 0.4, K=3.0) == condition_set(9.0, 1.0, 0.4, K=3)
    assert condition_set(9.0, 1.0, 0.4, K=4.0) == condition_set(9.0, 1.0, 0.4, K=4)


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", math.nan), ("a", math.inf), ("b", math.nan), ("b", math.inf),
        ("a", True), ("b", "1"), ("s", True),
    ],
)
def test_threshold_point_rejects_non_finite_coefficients(field, value):
    point = {"a": 9.0, "b": 1.0, "s": 0.4, field: value}
    with pytest.raises(ValueError, match=f"^{field} "):
        condition_set(**point)
    with pytest.raises(ValueError, match=f"^{field} "):
        classify_region(**point)


def test_condition_values_at_reference_point():
    cs = condition_set(9.0, 1.0, 0.4, K=3)
    assert cs == pytest.approx(
        {
            "single": 0.8,
            "pair_match": 0.8,
            "union_two": 1.28,
            "rec_two": 1.28,
            "union_all": 1.568,
            "match_all": 1.28,
            "rec_all": 1.568,
        },
        abs=1e-12,
    )
    assert list(cs) == [
        "single", "pair_match", "union_two", "rec_two", "union_all", "match_all", "rec_all"
    ]
    assert all(type(value) is float for value in cs.values())


def test_conditions_collapse_at_full_retention():
    # At s = 1 every union equals the single graph and every matching is a
    # pair matching, so the seven values collapse onto two.
    for a, b, K in [(9.0, 1.0, 3), (18.0, 2.0, 5), (5.0, 2.0, 2)]:
        cs = condition_set(a, b, 1.0, K=K)
        dp = chernoff_hellinger(a, b)
        tc = connectivity_param(a, b)
        for name in ("single", "union_two", "union_all"):
            assert cs[name] == pytest.approx(dp, abs=1e-12)
        for name in ("pair_match", "rec_two", "match_all", "rec_all"):
            assert cs[name] == pytest.approx(tc, abs=1e-12)


def test_condition_monotone_in_children():
    # Adding children can only help: union_all and rec_all grow with K.
    prev_union = prev_rec = 0.0
    for K in range(2, 8):
        cs = condition_set(6.0, 2.0, 0.3, K=K)
        assert cs["union_all"] >= prev_union
        assert cs["rec_all"] >= prev_rec
        prev_union = cs["union_all"]
        prev_rec = cs["rec_all"]


def test_region_reference_traces():
    assert classify_region(9.0, 1.0, 0.4) is RegionLabel.DARK_BLUE
    assert classify_region(40.0, 5.0, 0.25) is RegionLabel.GREEN
    assert classify_region(9.0, 1.0, 0.0) is RegionLabel.RED
    assert classify_region(4.0, 4.0, 0.9) is RegionLabel.RED


def test_region_boundary_detection():
    # At (9, 1, 0.5) the single-graph condition is exactly 1.
    assert classify_region(9.0, 1.0, 0.5) is RegionLabel.BOUNDARY
    assert classify_region(9.0, 1.0, 0.5, tol=0.0) is RegionLabel.CYAN


def test_regions_are_exclusive_and_exhaustive():
    rng = np.random.default_rng(7)
    labels = set()
    for _ in range(20000):
        a = float(rng.uniform(0.05, 50.0))
        b = float(rng.uniform(0.05, 50.0))
        s = float(rng.uniform(0.0, 1.0))
        label = classify_region(a, b, s, tol=0.0)
        assert label is not RegionLabel.BOUNDARY
        labels.add(label)
    # The sampler should hit most of the phase diagram.
    assert RegionLabel.GREEN in labels
    assert RegionLabel.RED in labels
    assert len(labels) >= 7


def test_exactly_one_region_predicate_holds():
    # classify_region stops at the first predicate that holds, so only the
    # flags themselves show two regions claiming one point.
    rng = np.random.default_rng(7)
    count = 50000
    points = zip(
        rng.uniform(0.05, 50.0, count), rng.uniform(0.05, 50.0, count), rng.uniform(0.0, 1.0, count)
    )
    hits = Counter()
    for a, b, s in points:
        values = condition_set(float(a), float(b), float(s), K=3)
        flags = _region_flags({name: value > 1.0 for name, value in values.items()})
        hits[sum(flags.values())] += 1
    assert hits == {1: count}


def test_every_label_is_reachable():
    # One hand-picked point per region, checked at zero tolerance.
    picks = {
        RegionLabel.GREEN: (40.0, 5.0, 0.25),
        RegionLabel.DARK_BLUE: (9.0, 1.0, 0.4),
        RegionLabel.RED: (2.0, 1.0, 0.5),
    }
    for expected, (a, b, s) in picks.items():
        assert classify_region(a, b, s, tol=0.0) is expected
    # Sweep a fine grid to observe the remaining labels.
    seen = set()
    for a in np.linspace(0.2, 60.0, 140):
        for s in np.linspace(0.02, 0.98, 60):
            seen.add(classify_region(float(a), 1.0, float(s), tol=0.0))
    for label in (
        RegionLabel.CYAN,
        RegionLabel.PINK,
        RegionLabel.VIOLET,
        RegionLabel.LIGHT_GREEN,
        RegionLabel.GREY,
        RegionLabel.YELLOW,
        RegionLabel.ORANGE,
    ):
        assert label in seen, label


def test_region_values_are_strings():
    assert classify_region(9.0, 1.0, 0.4).value == "DarkBlue"
    assert RegionLabel.LIGHT_GREEN.value == "LightGreen"


def test_small_s_is_always_red():
    # Below the all-union threshold nothing is recoverable.
    for a, b in [(9.0, 1.0), (40.0, 5.0), (18.0, 2.0)]:
        dp = chernoff_hellinger(a, b)
        # union_all < 1 requires 1 - (1-s)^3 < 1/dp.
        s_tiny = 1.0 - (1.0 - 1.0 / (2 * dp)) ** (1.0 / 3.0)
        s_tiny *= 0.5
        assert classify_region(a, b, s_tiny, tol=0.0) is RegionLabel.RED


def test_condition_set_respects_custom_k():
    cs2 = condition_set(9.0, 1.0, 0.4, K=2)
    # With K = 2 the all-children conditions coincide with the pair ones.
    assert cs2["union_all"] == pytest.approx(cs2["union_two"], abs=1e-12)
    assert cs2["rec_all"] == pytest.approx(cs2["rec_two"], abs=1e-12)
    assert cs2["match_all"] == pytest.approx(cs2["pair_match"], abs=1e-12)


def test_classification_matches_condition_flags():
    # Spot-check the decision logic against conditions computed directly.
    rng = np.random.default_rng(19)
    for _ in range(2000):
        a = float(rng.uniform(0.1, 40.0))
        b = float(rng.uniform(0.1, 40.0))
        s = float(rng.uniform(0.01, 0.99))
        holds = {name: value > 1.0 for name, value in condition_set(a, b, s, K=3).items()}
        label = classify_region(a, b, s, tol=0.0)
        if label is RegionLabel.GREEN:
            assert holds["single"]
        else:
            assert not holds["single"]
        if label is RegionLabel.RED:
            assert not holds["union_all"]
        if holds["union_all"]:
            assert label is not RegionLabel.RED
        two = holds["union_two"] and holds["rec_two"]
        if label in (RegionLabel.CYAN, RegionLabel.DARK_BLUE):
            assert two
        if label is RegionLabel.CYAN:
            assert holds["pair_match"]


@pytest.mark.parametrize("tol", [True, "0", math.inf])
def test_tolerance_must_be_a_finite_number(tol):
    # tol=True used to switch the guard on with a tolerance of 1.
    with pytest.raises(ValueError, match="^tol "):
        classify_region(9, 1, 0.4, tol=tol)


def test_boundary_requires_positive_tolerance():
    with pytest.raises(ValueError):
        classify_region(9.0, 1.0, 0.4, tol=-1e-3)
    # NaN fails "tol < 0" and "tol > 0" alike, which switched the guard off.
    with pytest.raises(ValueError, match="tol"):
        classify_region(9.0, 1.0, 0.4, tol=math.nan)
