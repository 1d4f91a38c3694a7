"""The claim rule of ``tools/pairs.py``, which decides every performance claim:
at least ten pairs, the change wins at least nine in ten, ties counting for
neither, and its median beats the parent's by more than the parent's
interquartile range.  Also the harness that ``tools/oracle_scale.py`` shares
with it: the refusal of a checkout holding compiled bytecode, and the
per-graph summary line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")
oracle_scale = _load("oracle_scale")

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


@pytest.mark.parametrize("parent, change", [
    ([1.00, 1.01], [0.92, 0.93]),   # two close pairs once "held" on identical code
    (PARENT[:9], FASTER[:9]),       # nine pairs, all won by a wide gap
    ([1.0], [0.5]),                 # one pair has no quartiles
], ids=["two-close", "nine-wide", "one"])
def test_fewer_than_ten_pairs_claim_nothing(parent, change):
    v = pairs.verdict(parent, change, "lower")
    assert v["wins"] == len(parent) and v["holds"] is None
    columns = pairs.claim_columns(v).split()
    assert columns[:3] == [f"{len(parent)}/{len(parent)}", f"{v['parent']:.4f}",
                           f"{v['change']:.4f}"]
    assert columns[-2:] == ["-" if len(parent) == 1 else f"{v['iqr']:.4f}", "-"]


def test_higher_is_better_flips_the_sign():
    slower = [p + 0.5 for p in PARENT]
    assert pairs.verdict(PARENT, slower, "higher")["holds"]
    assert pairs.verdict(PARENT, slower, "higher")["wins"] == 10
    v = pairs.verdict(PARENT, FASTER, "higher")
    assert v["wins"] == 0 and not v["holds"]
    assert pairs.verdict(PARENT, FASTER, "lower")["wins"] == 10


@pytest.mark.parametrize("stale", ["parent", "change"])
@pytest.mark.parametrize("tool, options", [("pairs", ["--seed", "1"]),
                                           ("oracle_scale", [])])
def test_a_checkout_with_bytecode_under_src_is_refused_before_any_child(
        tmp_path, monkeypatch, tool, options, stale):
    # bytecode on one side only times a load against a compile: a change of
    # 17 uncalled lines once "held" a -11.8% pack-oracle wall_s claim that way
    bench = (ROOT / "BENCHMARK.json").read_text()
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "treepack").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(bench)
    cache = tmp_path / stale / "src" / "treepack" / "__pycache__"
    cache.mkdir()
    (cache / "x.pyc").write_bytes(b"")

    def no_child(*args, **kwargs):
        raise AssertionError("a child started")
    monkeypatch.setattr(subprocess, "run", no_child)
    monkeypatch.setattr(sys, "argv", [tool, str(tmp_path / "parent"),
                                      str(tmp_path / "change"), *options])
    with pytest.raises(SystemExit) as refused:
        {"pairs": pairs, "oracle_scale": oracle_scale}[tool].main()
    assert str(cache.resolve()) in str(refused.value.code)
    assert (cache / "x.pyc").exists()


def _records(seconds, digest="d" * 64):
    return [{"n": 16, "m": 32, "sigma": 2, "seconds": s, "digest": digest}
            for s in seconds]


def test_oracle_scale_row_at_one_run_prints_the_digest_and_no_claim():
    # Q4: 32 edges on 16 vertices, 32 * (32 // 15) = 64 work units; one run
    # has no quartiles, so no IQR and no claim
    records = {"parent": _records([0.5]), "change": _records([0.25])}
    assert oracle_scale.row("Q4", records).split() == [
        "Q4", "16", "32", "2", "64", "7812.50", "3906.25", "same", "d" * 12,
        "1/1", "0.5000", "0.2500", "-50.0%", "-", "-"]


def test_oracle_scale_row_claims_by_the_pairs_rule():
    for change, holds in ((FASTER, True),
                          ([PARENT[0] + 0.01, PARENT[1] + 0.01, *FASTER[2:]], False)):
        v = pairs.verdict(PARENT, change, "lower")
        assert v["holds"] is holds
        records = {"parent": _records(PARENT), "change": _records(change)}
        line = oracle_scale.row("Q4", records)
        assert line.endswith(" same dddddddddddd " + pairs.claim_columns(v))
        records["change"][-1]["digest"] = "e" * 64
        assert " DIFFER " in oracle_scale.row("Q4", records)
