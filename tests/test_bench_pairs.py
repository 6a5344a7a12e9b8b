"""The verdicts `tools/bench_pairs.py` draws from paired runs, on
synthetic runs with known answers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "end_to_end": [
        {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}
TIGHT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def summary(base: dict, head: dict) -> dict:
    """Summarize one workload whose runs carry the given metric values."""

    def runs(values):
        count = len(next(iter(values.values())))
        return [
            {
                "metrics": {name: {"value": v[i]} for name, v in values.items()},
                "failed": 0,
                "attempted": 1,
                "correct": True,
            }
            for i in range(count)
        ]

    out = bench_pairs.summarize(METRICS, {"w": {"base": runs(base), "head": runs(head)}})
    return out["w"]["metrics"]


def test_clear_gain_is_no_worse():
    faster = [1.5 * v for v in TIGHT]
    m = summary({"trials_per_s": TIGHT, "setup_s": TIGHT}, {"trials_per_s": faster, "setup_s": TIGHT})
    assert m["trials_per_s"]["gain"] and m["trials_per_s"]["verdict"] == "no worse"
    assert m["trials_per_s"]["head_wins"] == "10/10"
    assert not m["setup_s"]["gain"] and m["setup_s"]["verdict"] == "no worse"


def test_wide_base_is_unresolved():
    wide = [5.0, 15.0, 7.0, 13.0, 6.0, 14.0, 8.0, 12.0, 9.0, 11.0]
    m = summary({"trials_per_s": wide, "setup_s": TIGHT}, {"trials_per_s": TIGHT, "setup_s": TIGHT})
    assert m["trials_per_s"]["base_spread"] > 0.25
    assert m["trials_per_s"]["verdict"] == "unresolved"
    assert not m["trials_per_s"]["gain"]


def test_wide_base_resolved_when_every_head_run_wins():
    wide = [5.0, 15.0, 7.0, 13.0, 6.0, 14.0, 8.0, 12.0, 9.0, 11.0]
    faster = [20.0 + 0.1 * i for i in range(10)]
    m = summary({"trials_per_s": wide, "setup_s": TIGHT}, {"trials_per_s": faster, "setup_s": TIGHT})
    assert m["trials_per_s"]["verdict"] == "no worse"
    assert m["trials_per_s"]["gain"]


@pytest.mark.parametrize("name, factor", [("trials_per_s", 0.7), ("setup_s", 1.3)])
def test_worse_beyond_the_bound(name, factor):
    other = "setup_s" if name == "trials_per_s" else "trials_per_s"
    m = summary({name: TIGHT, other: TIGHT}, {name: [factor * v for v in TIGHT], other: TIGHT})
    assert m[name]["verdict"] == "worse"
    assert not m[name]["gain"]
    assert m[other]["verdict"] == "no worse"


def test_worse_within_the_bound_is_no_worse():
    slower = [0.9 * v for v in TIGHT]
    m = summary({"trials_per_s": TIGHT, "setup_s": TIGHT}, {"trials_per_s": slower, "setup_s": TIGHT})
    assert m["trials_per_s"]["verdict"] == "no worse"
    assert m["trials_per_s"]["head_wins"] == "0/10"


def test_ties_count_for_neither_side():
    # 8 clear wins and 2 ties: 8/10, short of the 9/10 a gain needs
    head = [v + 5.0 for v in TIGHT[:8]] + TIGHT[8:]
    m = summary({"trials_per_s": TIGHT, "setup_s": TIGHT}, {"trials_per_s": head, "setup_s": TIGHT})
    assert m["trials_per_s"]["head_wins"] == "8/10"
    assert not m["trials_per_s"]["gain"]


def test_small_median_shift_is_no_gain():
    # every pair won, but by less than the base's q3 - q1
    head = [v + 0.01 for v in TIGHT]
    m = summary({"trials_per_s": TIGHT, "setup_s": TIGHT}, {"trials_per_s": head, "setup_s": TIGHT})
    assert m["trials_per_s"]["head_wins"] == "10/10"
    assert not m["trials_per_s"]["gain"]
    assert m["trials_per_s"]["verdict"] == "no worse"
