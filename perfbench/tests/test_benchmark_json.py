"""BENCHMARK.json names exactly the metrics and workloads the code has."""

import json
import os

import metrics
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_units_and_directions_match():
    spec = _spec()
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


def test_workload_names_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(
        workloads.WORKLOADS)
