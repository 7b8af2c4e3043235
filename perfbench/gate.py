"""Correctness gate and regime guards for the benchmark's workloads.

Every operation a run attempts is checked; ``failed`` counts the ones
that broke a claim.  A workload that leaves the regime it exists to
measure raises ``RegimeError`` instead: its figures would describe a
different workload.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from adaptive_mc import ObservationOracle, theorem_error_bound


class RegimeError(RuntimeError):
    """The workload's instance or run left the regime it measures."""


class SpyOracle(ObservationOracle):
    """Oracle that logs every read so the entry count can be recomputed
    independently of the oracle's own revealed-mask bookkeeping."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.reads = []          # (column, rows or None for the full column)

    def entry(self, i, j):
        self.reads.append((j, np.array([i])))
        return super().entry(i, j)

    def entries(self, omega, j):
        self.reads.append((j, np.asarray(omega)))
        return super().entries(omega, j)

    def column(self, j):
        self.reads.append((j, None))
        return super().column(j)

    def independent_count(self):
        """Distinct entries read, from the read log alone."""
        m = self.shape[0]
        rows = {}
        for j, omega in self.reads:
            if omega is None:
                rows[j] = None
            elif j not in rows:
                rows[j] = [omega]
            elif rows[j] is not None:
                rows[j].append(omega)
        return sum(m if parts is None
                   else np.unique(np.concatenate(parts)).size
                   for parts in rows.values())


def failed_columns(result, errors, m, epsilon, r, expected_count,
                   oracle_count):
    """Columns of one library run that break a claim.

    A reconstructed column fails when its error exceeds the certificate
    in force when it was reconstructed.  A run whose final dimension
    exceeds r, or whose oracle count differs from the independent count,
    fails as a whole: every column counts.
    """
    n = len(result.column_records)
    if result.k_final > r or oracle_count != expected_count:
        return n
    return sum(
        1 for rec in result.column_records
        if rec.mode == "Reconstructed"
        and not errors[rec.index] <= theorem_error_bound(
            m, rec.d, rec.k, epsilon, rec.theta_tilde)
    )


def check_library_regime(regime, result, m, observed_fraction):
    """``clamped``: every budget equals m.  ``subsampled``: fewer than
    m·n entries observed."""
    if regime == "clamped":
        budgets = {(ev.d_budget, ev.d_drawn) for ev in result.budget_trace}
        if budgets != {(m, m)}:
            raise RegimeError(f"expected every budget to clamp to m={m}, "
                              f"got (d_budget, d_drawn) in {sorted(budgets)}")
    elif regime == "subsampled":
        if not observed_fraction < 1.0:
            raise RegimeError("expected an observed fraction below 1, got "
                              f"{observed_fraction}")
    else:
        raise ValueError(f"unknown regime {regime!r}")


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_run_outputs(out_dir, m, n, r, epsilon):
    """Check the files ``adaptive-mc run`` wrote.

    Returns (ok, observations).  The run is correct when every
    reconstructed column is within its certificate, ``k_final <= r`` and
    the reported observations equal the count recomputed from the
    per-column modes and budgets.
    """
    rows = _read_csv(f"{out_dir}/results.csv")
    summary = _read_csv(f"{out_dir}/summary.csv")[0]
    observations = int(summary["observations"])
    recount = 0
    ok = len(rows) == n and int(summary["k_final"]) <= r
    for row in rows:
        d = int(row["d_at_time"])
        if row["mode"] == "FullyObserved":
            recount += m
            continue
        recount += min(d, m)
        bound = theorem_error_bound(m, d, int(row["k_at_time"]), epsilon,
                                    float(row["theta_tilde"]))
        if not float(row["col_error_vs_L"]) <= bound:
            ok = False
    return ok and recount == observations, observations


def failed_sweep_rows(path):
    """Sweep rows whose outcome is impossible: more dimensions than r,
    no or too many observations, or a non-finite error.  Returns
    (rows, failed)."""
    rows = _read_csv(path)
    failed = 0
    for row in rows:
        m, n, r = int(row["m"]), int(row["n"]), int(row["r"])
        obs = int(row["observations"])
        if not (int(row["k_final"]) <= r and 0 < obs <= m * n
                and math.isfinite(float(row["max_col_error"]))):
            failed += 1
    return len(rows), failed


def failed_verify_checks(path):
    """Verify rows whose verdict is neither PASS nor N/A.  Returns
    (rows, failed)."""
    rows = _read_csv(path)
    return len(rows), sum(row["verdict"] not in ("PASS", "N/A")
                          for row in rows)
