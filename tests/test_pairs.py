"""The claim rule of ``tools/pairs.py``, which decides every performance claim:
the change wins at least nine pairs in ten, ties counting for neither, and its
median beats the parent's by more than the parent's interquartile range."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
FASTER = [p - 0.5 for p in PARENT]   # a gap of 0.5 against an IQR near 0.06


def test_nine_wins_in_ten_with_a_wide_gap_hold():
    change = [PARENT[0] + 0.01, *FASTER[1:]]
    v = pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 9 and v["holds"]
    assert v["change"] < v["parent"] - v["iqr"]


def test_eight_wins_in_ten_do_not_hold():
    change = [PARENT[0] + 0.01, PARENT[1] + 0.01, *FASTER[2:]]
    v = pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and not v["holds"]


def test_ties_count_for_neither_side():
    v = pairs.verdict(PARENT, list(PARENT), "lower")
    assert v["wins"] == 0 and v["relative"] == 0 and not v["holds"]
    # nine wins and a tie still hold; eight wins and two ties do not
    assert pairs.verdict(PARENT, [PARENT[0], *FASTER[1:]], "lower")["holds"]
    assert not pairs.verdict(PARENT, PARENT[:2] + FASTER[2:], "lower")["holds"]


def test_a_gap_inside_the_parent_iqr_does_not_hold():
    spread = [1.0, 1.4, 1.1, 1.3, 1.2, 1.0, 1.4, 1.1, 1.3, 1.2]
    change = [p - 0.05 for p in spread]
    v = pairs.verdict(spread, change, "lower")
    assert v["wins"] == 10
    assert 0 < v["parent"] - v["change"] < v["iqr"] and not v["holds"]


def test_higher_is_better_flips_the_sign():
    slower = [p + 0.5 for p in PARENT]
    assert pairs.verdict(PARENT, slower, "higher")["holds"]
    assert pairs.verdict(PARENT, slower, "higher")["wins"] == 10
    v = pairs.verdict(PARENT, FASTER, "higher")
    assert v["wins"] == 0 and not v["holds"]
    assert pairs.verdict(PARENT, FASTER, "lower")["wins"] == 10
