"""`tools/ab.py`'s statistics on made-up samples: medians and quartiles,
wins with ties counting for neither side, the no-regression bound in each
metric's direction, whether the runs' spread resolves it, and the claim rule."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPEC = [{"name": "rate", "unit": "windows/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.1}]


def _runs(**columns) -> list[dict]:
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_medians_quartiles_wins_and_bounds():
    parent = _runs(rate=[100, 110, 90, 100, 105], rss=[50, 50, 50, 50, 50])
    change = _runs(rate=[120, 110, 95, 80, 130], rss=[56, 54, 55, 50, 49])
    report = ab.compare(parent, change, SPEC)
    rate, rss = report["metrics"]["rate"], report["metrics"]["rss"]
    assert report["pairs"] == 5
    assert rate["parent"] == {"median": 100, "q1": 100, "q3": 105}
    assert rate["change"] == {"median": 110, "q1": 95, "q3": 120}
    assert rate["change_wins"] == 3  # pair 2 ties, pair 4 loses
    assert rate["within_bound"] is True
    assert rss["change_wins"] == 1  # lower is better: only pair 5
    assert rss["change"]["median"] == 54 and rss["within_bound"] is True  # 54 <= 50 * 1.1
    assert "claim" not in report


@pytest.mark.parametrize("better, parent, change, within", [
    ("higher", [100, 100, 100], [75, 75, 75], True),   # exactly 25% worse is within the bound
    ("higher", [100, 100, 100], [74, 74, 74], False),
    ("lower", [100, 100, 100], [125, 125, 125], True),
    ("lower", [100, 100, 100], [126, 126, 126], False),
])
def test_the_bound_holds_in_the_metrics_direction(better, parent, change, within):
    spec = [{"name": "m", "unit": "u", "better": better, "bound": 0.25}]
    report = ab.compare(_runs(m=parent), _runs(m=change), spec)
    assert report["metrics"]["m"]["within_bound"] is within


@pytest.mark.parametrize("better, parent, change, resolved", [
    ("higher", [90, 100, 110], [95, 100, 105], True),    # parent IQR 10 is within 0.1 x 100
    ("higher", [80, 100, 120], [100, 100, 100], False),  # parent IQR 20 is wider
    ("higher", [100, 100, 100], [80, 100, 120], False),  # so is the change's
    ("higher", [80, 100, 120], [121, 130, 140], True),   # but every change run beats every parent run
    ("higher", [80, 100, 120], [120, 130, 140], False),  # a tie is no win
    ("lower", [80, 100, 120], [60, 70, 79], True),
    ("lower", [80, 100, 120], [70, 75, 130], False),
])
def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate(better, parent, change, resolved):
    spec = [{"name": "m", "unit": "u", "better": better, "bound": 0.1}]
    assert ab.compare(_runs(m=parent), _runs(m=change), spec)["metrics"]["m"]["resolved"] is resolved


@pytest.mark.parametrize("change, wins_enough, beyond_iqr", [
    ([111] * 9 + [100], True, True),    # 9 of 10 wins; medians 11 apart, parent IQR 103.75 - 96.25
    ([111] * 8 + [100] * 2, False, True),
    ([107] * 10, True, False),          # every pair won, but by less than the parent's spread
])
def test_the_claim_needs_9_of_10_wins_and_a_median_gain_beyond_the_parents_iqr(change, wins_enough, beyond_iqr):
    parent = _runs(rate=[95, 95, 95, 100, 100, 100, 100, 105, 105, 105], rss=[1] * 10)
    change = _runs(rate=change, rss=[1] * 10)
    claim = ab.compare(parent, change, SPEC, claim="rate")["claim"]
    assert claim == {"metric": "rate", "wins_at_least_9_of_10": wins_enough,
                     "median_gain_exceeds_parent_iqr": beyond_iqr, "holds": wins_enough and beyond_iqr}


def test_one_pair_has_its_value_for_median_and_quartiles():
    report = ab.compare(_runs(rate=[7], rss=[1]), _runs(rate=[8], rss=[1]), SPEC)
    assert report["metrics"]["rate"]["parent"] == {"median": 7, "q1": 7, "q3": 7}
