"""Self-test of the benchmark harness: self-time arithmetic, metric names,
and exact repetition of the traced count metrics."""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from run import END_TO_END  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert [span[2] for span in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [6, 2, 1, 1]


def test_self_time_counts_overlapping_children_once():
    # two worker-thread children overlap inside their parent
    spans = [[0.0, 10.0, -1, "scan", 0, None], [1.0, 5.0, 0, "eval", 0, None], [3.0, 7.0, 0, "eval", 0, None]]
    assert self_times(spans) == [4.0, 4.0, 4.0]


def test_metric_names_and_units_are_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared_e2e == END_TO_END
    assert declared_layer == LAYER_METRICS
    names = [name for name, _ in END_TO_END + LAYER_METRICS] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + LAYER_METRICS:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_tracer_wraps_every_namespace_and_restores():
    import quadrep.cli
    import quadrep.maps

    original = quadrep.maps.catalog
    tracer = Tracer()
    tracer.install()
    try:
        assert quadrep.cli.catalog is quadrep.maps.catalog is not original
        assert quadrep.maps.catalog.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert quadrep.cli.catalog is original and quadrep.maps.catalog is original


def _traced_counts(tmp_path) -> dict:
    import quadrep.cli
    import quadrep.maps

    tracer = Tracer()
    tracer.install()
    try:
        quadrep.maps.catalog("pi_np1:3")
        code, _ = workloads.run_cli(["generate", "pi3_s2:2", "-o", str(tmp_path / "m.json")])
        assert code == 0
        code, _ = workloads.run_cli(["verify", str(tmp_path / "m.json"), "--mode", "exact"])
        assert code == 0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    return {name: metrics[name] for name, unit in LAYER_METRICS if unit == "count" and name in metrics}


def test_count_metrics_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert first["exact.mul.products"] > 0
    assert first["maps.certify_order.calls"] > 0
    assert 0 < first["maps.certify_order.distinct"] <= first["maps.certify_order.calls"]
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_ops_have_groups_one_to_three(workload, tmp_path):
    ops = workloads.pass_ops(workload, str(tmp_path), seed=0)
    assert {op.group for op in ops} == {1, 2, 3}
