"""Tests of the per-layer tracer on a stand-in module.

    python3 -m pytest perfbench
"""

import sys
import types
from types import SimpleNamespace

import layers


def test_wrapped_names_are_counted_and_removed_names_are_absent(monkeypatch):
    def check(kind, t):
        return SimpleNamespace(counterexample=SimpleNamespace(i=1, j=2))

    identities = types.ModuleType("ghderiv.identities")
    identities.check = check
    caller = types.ModuleType("ghderiv.cli")
    caller.check = check  # imported by name: must be patched here too
    monkeypatch.setitem(sys.modules, "ghderiv.identities", identities)
    monkeypatch.setitem(sys.modules, "ghderiv.cli", caller)

    tracer = layers.Tracer().install()
    try:
        caller.check("left-gh", SimpleNamespace(alg=SimpleNamespace(dim=3)))
        identities.check("left-gh", SimpleNamespace(alg=SimpleNamespace(dim=3)))
    finally:
        tracer.uninstall()
    assert identities.check is check and caller.check is check

    metrics = tracer.metrics(rounds=2, wall=1.0, out_bytes=10)
    assert metrics["identities.checks"]["value"] == 1  # two calls in two rounds
    assert metrics["identities.pairs"]["value"] == 6  # (1, 2) is pair 6 of 9, twice
    assert 0 < metrics["identities.check_pct"]["value"] < 100
    assert metrics["cli.out_bytes"]["value"] == 5
    assert metrics["solver.rows"] == {"value": 0, "unit": "count"}
    assert metrics["cli.emit_pct"] == {"value": 0, "unit": "%"}
    assert {"solver.rows", "ring.scalar_ops", "cli.emit_pct"} <= set(tracer.absent())
    assert "identities.check_pct" not in tracer.absent()
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_self_time_excludes_child_spans():
    tracer = layers.Tracer()
    outer = tracer.open("solver.nullspace")
    inner = tracer.open("linalg.rref")
    tracer.close(inner)
    tracer.close(outer)
    tracer.spans[outer][1:3] = [0.0, 5.0]
    tracer.spans[inner][1:3] = [1.0, 4.0]
    times = tracer._times()
    assert times == {"solver.nullspace": 2.0, "linalg.rref": 3.0}
