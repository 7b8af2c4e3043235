"""Tests for the benchmark's outside-in tracer and span arithmetic."""

import importlib

import pytest

import adaptive_mc as amc
import tracing
from tracing import Span, SpanIndex, nesting_errors, self_times


def _tree():
    # run_lrebn [0, 10]
    #   oracle_entries [1, 2]
    #   reconstruct_column [3, 7]
    #     restricted_lstsq [4, 6]
    #   restricted_lstsq [8, 9]
    return [
        Span(2, "linalg.restricted_lstsq", 4.0, 6.0, 1, 7),
        Span(1, "linalg.reconstruct_column", 3.0, 7.0, 0, 7),
        Span(3, "synthetic.oracle_entries", 1.0, 2.0, 0, 7),
        Span(4, "linalg.restricted_lstsq", 8.0, 9.0, 0, 7),
        Span(0, "lrebn.run_lrebn", 0.0, 10.0, None, 7),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(_tree())
    assert own[0] == pytest.approx(10.0 - 1.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(4.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", 0.0, 10.0, None, 1),
             Span(1, "a", 1.0, 5.0, 0, 1),
             Span(2, "b", 3.0, 6.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_span_index_totals_nested_calls_once():
    ix = SpanIndex(_tree())
    assert ix.calls("linalg.restricted_lstsq") == 2
    assert ix.seconds("linalg.restricted_lstsq") == pytest.approx(3.0)
    # The lstsq inside reconstruct_column is already in its parent.
    assert ix.seconds("linalg.reconstruct_column",
                      "linalg.restricted_lstsq") == pytest.approx(5.0)
    assert ix.self_seconds("lrebn.run_lrebn") == pytest.approx(4.0)


def test_nesting_errors_flags_child_outside_parent():
    spans = _tree()
    assert nesting_errors(spans) == []
    spans.append(Span(5, "late", 9.5, 10.5, 0, 7))
    assert [s.id for s in nesting_errors(spans)] == [5]


def _bindings():
    names = ["adaptive_mc"] + [f"adaptive_mc.{m}" for m in tracing.MODULES]
    return {(n, attr): value
            for n in names
            for attr, value in vars(importlib.import_module(n)).items()}


def _small_run():
    inst = amc.make_instance(40, 60, 2, 0.01, 3)
    cfg = amc.LrebnConfig(epsilon=0.01, delta=0.05, r=2,
                          mu_upper=amc.coherence(inst.true_basis), seed=4)
    return amc.run_lrebn(amc.ObservationOracle(inst.M), cfg)


def test_traced_run_records_nested_spans_and_restores_bindings():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        from adaptive_mc import lrebn, verify
        assert lrebn.restricted_lstsq is not before[
            ("adaptive_mc.lrebn", "restricted_lstsq")]
        assert hasattr(verify.orthonormalize, "__traced_original__")
        _small_run()
    assert _bindings() == before

    ix = SpanIndex(tracer.spans)
    assert ix.calls("lrebn.run_lrebn") == 1
    assert ix.calls("synthetic.oracle_entries") == 60
    by_id = {s.id: s for s in tracer.spans}
    nested = [s for s in tracer.spans if s.name == "linalg.restricted_lstsq"
              and s.parent is not None
              and by_id[s.parent].name == "linalg.reconstruct_column"]
    assert nested and len(nested) == ix.calls("linalg.reconstruct_column")
    assert nesting_errors(tracer.spans) == []
    assert tracer.counters["lrebn.columns"] == 60


def test_bindings_restored_when_the_traced_run_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            1 / 0
    assert _bindings() == before
