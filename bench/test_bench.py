"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import env

if not env.prepare():
    pytest.skip("no wipdyn sources to benchmark", allow_module_level=True)

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wipdyn import sim  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 7) == workloads.make_inputs(w, 7)


def test_different_seeds_give_different_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.make_inputs(w, 7), workloads.make_inputs(w, 8)
        assert a.config["initial"] != b.config["initial"]
        assert a.config["torques"] != b.config["torques"]
        assert a.check_seed != b.check_seed


def _namespaces():
    """Every namespace the tracer may touch, copied attribute by attribute."""
    found = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "wipdyn" or name.startswith("wipdyn.")}
    for _, owner, _, _ in layers.TARGETS:
        if isinstance(owner, type):
            found[owner.__qualname__] = dict(vars(owner))
    return found


def _assert_untouched(before):
    after = _namespaces()
    assert after.keys() == before.keys()
    for ns, attrs in before.items():
        assert after[ns].keys() == attrs.keys(), ns
        changed = [k for k, v in attrs.items() if after[ns][k] is not v]
        assert not changed, (ns, changed)


def _tiny(workload: str, tmp_path):
    inputs = workloads.make_inputs(workload, 3)
    config = dict(inputs.config, sim=dict(inputs.config["sim"], T=20 * inputs.config["sim"]["dt"]))
    return workloads.Runner(dataclasses.replace(inputs, config=config), tmp_path)


def test_traced_rounds_restore_every_wrapped_attribute(tmp_path):
    runner = _tiny("compare", tmp_path)
    before = _namespaces()
    tracer = layers.Tracer()
    with tracer.installed():
        assert sim.simulate is not before["wipdyn.sim"]["simulate"]
        windows = []
        for _ in workloads.rounds(runner, 0.0, 2, speed.Gauge()):
            windows.append(runner.last_window)
    _assert_untouched(before)
    assert runner.failed == 0

    metrics, counts = layers.summarise(tracer, windows)
    assert len(counts) == 1
    assert metrics["oracle.lagrange_dalembert_rhs.calls"] > 0
    assert metrics["validation.compare_trajectories.share"] > 0
    called = set(tracer.table()[:, 1].tolist())
    for layer in ("cli.load_config", "sim.simulate", "sim.rk4_step", "sim.tau_at",
                  "oracle.lagrangian_full", "model.Params", "model.total_energy"):
        assert layers.LAYERS.index(layer) in called, layer


def test_wrappers_are_removed_when_the_block_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with layers.Tracer().installed():
            raise RuntimeError("boom")
    _assert_untouched(before)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
