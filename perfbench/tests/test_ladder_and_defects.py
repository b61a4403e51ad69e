"""Fast checks of the capacity search and the known-defect list.

    python3 -m pytest -q perfbench/tests/test_ladder_and_defects.py

The capacity search runs against a stand-in load whose probes pass up to
a given rate, so these take well under a second.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import services  # noqa: E402  (after the path is set)
import suite  # noqa: E402


class _Load:
    def __init__(self):
        self.probes = 0

    def probe_items(self):
        self.probes += 1
        return []


def _search(monkeypatch, capacity: float):
    rates = []
    monkeypatch.setattr(services, "drive",
                        lambda port, items, rate: rates.append(rate) or [])
    monkeypatch.setattr(services, "check_all", lambda records, items, refs: [])
    monkeypatch.setattr(services, "_passes",
                        lambda records, checked: rates[-1] <= capacity)
    load = _Load()
    server = type("Server", (), {"port": 0})()
    slo, bracketed, _ = services.ladder_search(server, load, {})
    return slo, bracketed, rates, load.probes


@pytest.mark.parametrize("capacity", [41.0, 95.0, 300.0, 800.0])
def test_search_finds_the_highest_passing_rung_in_six_rungs(monkeypatch, capacity):
    slo, bracketed, rates, probes = _search(monkeypatch, capacity)
    assert len(set(rates)) == 6
    # Each failing rung is tried twice.
    assert probes == len(rates) == 6 + sum(rate > capacity for rate in set(rates))
    assert bracketed
    assert slo <= capacity < slo * services.LADDER_RATIO


@pytest.mark.parametrize("capacity", [1.0, 1e6])
def test_search_off_the_ladder_does_not_bracket(monkeypatch, capacity):
    slo, bracketed, rates, probes = _search(monkeypatch, capacity)
    assert len(set(rates)) == 6
    assert not bracketed


def test_known_defects_are_the_seed_list():
    known = suite.known_defects()
    assert len(known) == 82
    assert "SPECfp/444.namd.fn0/bpc" in known
    assert suite.unknown_defects(["SPECfp/444.namd.fn0/bpc"]) == []
    assert suite.unknown_defects(
        ["SPECfp/444.namd.fn0/bpc", "CNN-KERNEL/conv.fn0/bpc"]
    ) == ["CNN-KERNEL/conv.fn0/bpc"]


def test_saving_verdicts_leaves_the_defect_list_alone(monkeypatch, tmp_path):
    monkeypatch.setattr(suite, "VERDICTS_PATH", str(tmp_path / "verdicts.json"))
    before = suite.known_defects()
    suite.save_verdicts({"k": suite.NOT_EQUIVALENT})
    assert suite.known_defects() == before
    assert suite.load_verdicts().get("k") == suite.NOT_EQUIVALENT
