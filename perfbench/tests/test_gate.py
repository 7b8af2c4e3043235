"""Tests for the benchmark's correctness gate."""

import numpy as np
import pytest

import adaptive_mc as amc
import gate
from workloads import LibraryWorkload

SMALL = LibraryWorkload(m=40, n=60, r=2, epsilon=0.01, delta=0.05,
                        regime="clamped")


class MiscountingOracle(amc.ObservationOracle):
    """Reports one entry more than it revealed."""

    @property
    def entry_count(self):
        return super().entry_count + 1


def _run(oracle_cls):
    inst = SMALL.setup(5)
    cfg = SMALL.config(inst, 5)
    spy, result, errors = SMALL.run_once(inst, cfg, gate.SpyOracle)
    expected = spy.independent_count()
    oracle, result, errors = SMALL.run_once(inst, cfg, oracle_cls)
    return result, errors, expected, oracle.entry_count


def test_correct_run_has_no_failures():
    result, errors, expected, count = _run(amc.ObservationOracle)
    assert expected == count
    assert SMALL.failed(result, errors, expected, count) == 0
    gate.check_library_regime("clamped", result, SMALL.m, count / (40 * 60))


def test_gate_fails_every_column_when_oracle_count_disagrees():
    result, errors, expected, count = _run(MiscountingOracle)
    assert count == expected + 1
    assert SMALL.failed(result, errors, expected, count) == SMALL.n


def test_gate_counts_columns_outside_their_certificate():
    result, errors, expected, count = _run(amc.ObservationOracle)
    reconstructed = [rec.index for rec in result.column_records
                     if rec.mode == "Reconstructed"]
    errors = np.array(errors)
    errors[reconstructed[:3]] = 1e6
    assert SMALL.failed(result, errors, expected, count) == 3


def test_spy_count_is_independent_of_read_order():
    spy = gate.SpyOracle(np.arange(12.0).reshape(4, 3))
    spy.entries([0, 2], 1)
    spy.entries([1, 2], 1)
    spy.column(0)
    spy.entries([3], 0)
    spy.entry(3, 2)
    assert spy.independent_count() == 3 + 4 + 1 == spy.entry_count


def test_regime_guards_raise():
    result, errors, expected, count = _run(amc.ObservationOracle)
    with pytest.raises(gate.RegimeError):
        gate.check_library_regime("subsampled", result, SMALL.m, 1.0)
    with pytest.raises(gate.RegimeError):
        gate.check_library_regime("clamped", result, SMALL.m + 1, 1.0)


def test_verify_rows_other_than_pass_or_na_fail(tmp_path):
    path = tmp_path / "verify.csv"
    path.write_text("name,verdict\nkcoh,PASS\nmatcher,N/A\nconc,FAIL\n")
    assert gate.failed_verify_checks(str(path)) == (3, 1)
