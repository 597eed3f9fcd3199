"""The pairs driver's arithmetic: spreads, win counts and the gain rule,
on made-up runs, without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_seeds_are_an_inclusive_range_or_one():
    assert pairs.parse_seeds("11..14") == [11, 12, 13, 14]
    assert pairs.parse_seeds("5") == [5]
    with pytest.raises(Exception, match="no seeds"):
        pairs.parse_seeds("4..3")


def test_spread_is_the_median_and_inclusive_quartiles():
    assert pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert pairs.spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_follow_the_metrics_direction_and_ties_count_for_neither():
    runs = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (1.0, 5.0)]
    assert pairs.wins(runs, "higher") == {"head": 2, "base": 1, "ties": 1}
    assert pairs.wins(runs, "lower") == {"head": 1, "base": 2, "ties": 1}


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_spread():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    clear = pairs.compare([(b, b + 20) for b in base], "higher", 0.25)
    assert clear["wins"] == {"head": 10, "base": 0, "ties": 0}
    assert clear["gain_holds"] and clear["within_bound"]
    assert clear["change"] == pytest.approx(20 / 104.5)
    # nine wins but a gap of 3 inside the base's quartile distance of 4.5
    narrow = pairs.compare([(b, b + 3) for b in base[:9]] + [(base[9], base[9] - 1)], "higher", 0.25)
    assert narrow["wins"]["head"] == 9 and not narrow["gain_holds"]
    # a large gap won in eight pairs of ten
    split = pairs.compare([(b, b + 20) for b in base[:8]] + [(b, b - 1) for b in base[8:]], "higher", 0.25)
    assert split["wins"]["head"] == 8 and not split["gain_holds"]


def test_a_lower_is_better_metric_past_its_bound_is_flagged():
    worse = pairs.compare([(1.0, 1.3)] * 10, "lower", 0.25)
    assert worse["change"] == pytest.approx(-0.3)
    assert not worse["within_bound"] and not worse["gain_holds"]
    assert pairs.compare([(1.0, 1.2)] * 10, "lower", 0.25)["within_bound"]


def test_summarize_matches_runs_by_pair_and_skips_missing_metrics():
    runs = [
        {"pair": 0, "side": "base", "metrics": {"expl_per_s": 10.0, "setup_s": 1.0}},
        {"pair": 0, "side": "head", "metrics": {"expl_per_s": 12.0}},
        {"pair": 1, "side": "head", "metrics": {"expl_per_s": 13.0}},
        {"pair": 1, "side": "base", "metrics": {"expl_per_s": 11.0}},
    ]
    summary = pairs.summarize(runs, {"expl_per_s": ("higher", 0.25), "setup_s": ("lower", 0.25)})
    assert list(summary) == ["expl_per_s"]
    assert summary["expl_per_s"]["wins"] == {"head": 2, "base": 0, "ties": 0}
    assert summary["expl_per_s"]["base"]["median"] == 10.5
