"""
LREBN: adaptive column-by-column low-rank estimation under bounded noise.

The algorithm walks the columns left to right.  For each column it reads
only the entries on a random row pattern Omega and compares the
least-squares residual against the current estimated subspace to a
noise-aware threshold

    (1 + eps) * ( sqrt(3 d / 2m) * theta_tilde + sqrt(3 d k eps / 2m) ).

A column that beats the threshold carries a new direction: it is observed
in full, appended to the estimated subspace, and three quantities are
refreshed: the running upper bound ``theta_tilde`` on the angle between
the estimated (noisy) subspace and the unobservable clean one, the
per-column sampling budget

    d = 72 * mu * r * ln(1/delta)^2  +  8 * m * theta_tilde^2 * ln(r/delta),

and the row pattern Omega (redrawn at the new size).  All other columns
are reconstructed from their sampled entries by least squares against the
estimated subspace.  Logarithms are natural throughout.

``theta_tilde`` is maintained by the angle recursion

    theta_{k} = theta_{k-1} + (pi/2) * numerator / denominator,

where the numerator is the worst-case angle between a noisy column and
its clean counterpart, ``arcsin(min(1, eps / (1 - eps)))`` (the clean
column is unobservable; the noise model bounds the sine), and the
denominator is the new column's angle to the previous estimated subspace
floored at ``sqrt(k * eps)``.  The estimate is capped at
``(3 pi / 2) * sqrt(k * eps)``, which the analysis shows the true
quantity respects, and at pi/2 always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    coherence,
    extend_basis,
    vector_subspace_angle,
)
from .sampling import RngState, sample_uniform_subset
from .synthetic import _check_epsilon

__all__ = [
    "RESIDUAL_FLOOR",
    "LrebnConfig",
    "ColumnRecord",
    "SubspaceEvent",
    "RecoveryResult",
    "initial_budget",
    "updated_budget",
    "residual_threshold",
    "column_test",
    "angle_increment",
    "run_lrebn",
    "theorem_error_bound",
    "recovery_errors",
]

MAX_DELTA = 0.1

# Residuals at or below this value count as exactly zero in the novelty
# test, so float-level least-squares noise (~1e-15) cannot trigger a full
# observation when the exact threshold is 0.
RESIDUAL_FLOOR = 1e-9

# Stream label for the row-pattern draws inside a run.
_STREAM_OMEGA = 7

REDRAW_ON_UPDATE = "on-update"
REDRAW_PER_COLUMN = "per-column"


@dataclass(frozen=True)
class LrebnConfig:
    """Run parameters.

    Attributes
    ----------
    epsilon : float
        Per-column noise bound; 0 <= epsilon < 1/4.
    delta : float
        Failure parameter; 0 < delta < 0.1 (and delta <= r**(-1/8) for
        r >= 2, which only binds at astronomically large ranks).
    r : int
        Target rank.
    mu_upper : float
        Upper bound on the coherence of the true column space, supplied
        by the caller; finite and >= 1.
    budget_cap_to_m : bool
        Clamp budgets to m (default).  With the cap off the budget
        formula value is used in the threshold as-is, while draws are
        still physically limited to m rows.
    angle_cap_enabled : bool
        Apply the (3 pi / 2) sqrt(k eps) cap to theta_tilde (default).
        The pi/2 clamp always applies.
    estimate_mu : bool
        Replace mu_upper at every budget refresh with the heuristic
        ``max(1, 2 * coherence(current basis) * k / r)``.  Clearly a
        heuristic: the true-space coherence is not observable.
    omega_redraw : {"on-update", "per-column"}
        Default redraws the row pattern only after a subspace update;
        "per-column" is an ablation that redraws for every column.
    seed : int
        Seed for the row-pattern stream.
    """

    epsilon: float
    delta: float
    r: int
    mu_upper: float = 1.0
    budget_cap_to_m: bool = True
    angle_cap_enabled: bool = True
    estimate_mu: bool = False
    omega_redraw: str = REDRAW_ON_UPDATE
    seed: int = 0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not 0.0 < self.delta < MAX_DELTA:
            raise ValueError(
                f"delta must satisfy 0 < delta < {MAX_DELTA}; got {self.delta}"
            )
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.r >= 2 and self.delta > self.r ** (-0.125):
            raise ValueError(
                f"delta must be <= r**(-1/8) = {self.r ** (-0.125):.6g} "
                f"for r = {self.r}"
            )
        if not (math.isfinite(self.mu_upper) and self.mu_upper >= 1.0):
            raise ValueError(
                f"mu_upper must be a finite number >= 1; got {self.mu_upper}"
            )
        if self.omega_redraw not in (REDRAW_ON_UPDATE, REDRAW_PER_COLUMN):
            raise ValueError(
                f"omega_redraw must be '{REDRAW_ON_UPDATE}' or "
                f"'{REDRAW_PER_COLUMN}'"
            )


class ColumnRecord(NamedTuple):
    """Per-column decision record, captured before any subspace update the
    column itself triggers."""

    index: int
    mode: str               # "Reconstructed" or "FullyObserved"
    k: int
    d: int                  # budget in force (threshold d)
    theta_tilde: float
    residual: float
    threshold: float


class SubspaceEvent(NamedTuple):
    """State after a subspace update (k includes the new column).

    ``mu`` is the coherence bound fed to the budget formula (fixed at
    ``cfg.mu_upper`` unless ``estimate_mu`` refreshes it); ``d_formula``
    is the ceiled formula value before any clamping; ``d_budget`` is the
    budget actually in force (clamped to m when the cap is enabled);
    ``d_drawn`` is the realized |Omega|.
    """

    k: int
    theta_tilde: float
    mu: float
    d_formula: int
    d_budget: int
    d_drawn: int


@dataclass
class RecoveryResult:
    """Output of a run: the recovered matrix plus full accounting.

    ``column_records`` holds one ``ColumnRecord`` per column and
    ``budget_trace`` the initial ``SubspaceEvent`` plus one per subspace
    update; ``column_mode``, ``theta_trace`` and ``k_final`` are read from
    them.
    """

    M_tilde: np.ndarray
    observations: int
    budget_trace: list
    bound_violations: int
    column_records: list

    @property
    def column_mode(self):
        """``"FullyObserved"`` or ``"Reconstructed"`` per column."""
        return [rec.mode for rec in self.column_records]

    @property
    def theta_trace(self):
        """``(k, theta_tilde)`` per budget event, from ``(0, 0.0)`` on."""
        return [(ev.k, ev.theta_tilde) for ev in self.budget_trace]

    @property
    def k_final(self):
        """Estimated dimension at the end of the run."""
        return self.budget_trace[-1].k


def _budget_formula(mu, r, delta, m, theta_tilde):
    """The budget formula, ceiled to an integer of at least 1 (not
    clamped to m)."""
    return max(1, math.ceil(
        72.0 * mu * r * math.log(1.0 / delta) ** 2
        + 8.0 * m * theta_tilde ** 2 * math.log(r / delta)
    ))


def updated_budget(cfg, m, theta_tilde):
    """Per-column sampling budget for the current angle estimate.

    ``ceil(72 mu r ln(1/delta)^2 + 8 m theta^2 ln(r/delta))`` clamped
    into [1, m] when ``budget_cap_to_m`` (the formula exceeds m easily at
    small m, where full-row sampling is simply exact).
    """
    return _budgets(cfg, cfg.mu_upper, m, theta_tilde)[1]


def _budgets(cfg, mu, m, theta_tilde):
    """``(d_formula, d_budget)`` from one evaluation of the formula at
    coherence bound ``mu``: the ceiled value (at least 1) and the budget
    in force after the optional clamp to m."""
    if not 0.0 <= theta_tilde <= math.pi / 2 + 1e-12:
        raise ValueError("theta_tilde must lie in [0, pi/2]")
    d_formula = _budget_formula(mu, cfg.r, cfg.delta, m, theta_tilde)
    return d_formula, (min(d_formula, int(m)) if cfg.budget_cap_to_m else d_formula)


def initial_budget(cfg, m):
    """Budget before any subspace has been found (theta_tilde = 0)."""
    return updated_budget(cfg, m, 0.0)


def residual_threshold(d, m, k, epsilon, theta_tilde):
    """Residual level above which a sampled column counts as novel."""
    root = math.sqrt(3.0 * d / (2.0 * m))
    return (1.0 + epsilon) * (root * theta_tilde + math.sqrt(3.0 * d * k * epsilon / (2.0 * m)))


def column_test(residual, d, m, k, cfg, theta_tilde):
    """True when the sampled residual exceeds the novelty threshold.

    Residuals at or below ``RESIDUAL_FLOOR`` count as zero.  At k = 0 the
    threshold is 0, so any residual above the floor sends the column to
    full observation.
    """
    if residual < 0.0:
        raise ValueError("residual must be non-negative")
    return (residual > RESIDUAL_FLOOR
            and residual > residual_threshold(d, m, k, cfg.epsilon,
                                              theta_tilde))


def angle_increment(theta_tilde_prev, theta_new_col, cfg, k):
    """Advance the angle upper bound after a subspace update.

    Parameters
    ----------
    theta_new_col : float
        Angle between the newly observed column and the previous
        estimated subspace.
    k : int
        Dimension after adding the column (>= 1).

    Returns
    -------
    float
        New theta_tilde; non-decreasing in k, capped at
        ``(3 pi / 2) sqrt(k epsilon)`` when enabled and at pi/2 always.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (dimension after the update)")
    eps = cfg.epsilon
    if eps == 0.0:
        # Numerator vanishes; the estimate stays wherever it is (0).
        return min(theta_tilde_prev, math.pi / 2)
    if theta_new_col <= 0.0:
        raise RuntimeError(
            "accepted column lies in the previous span (angle 0) while "
            "epsilon > 0; the residual test should not have fired"
        )
    numerator = math.asin(min(1.0, eps / (1.0 - eps)))
    denominator = max(theta_new_col - theta_tilde_prev, math.sqrt(k * eps))
    result = theta_tilde_prev + (math.pi / 2.0) * numerator / denominator
    if cfg.angle_cap_enabled:
        result = min(result, 1.5 * math.pi * math.sqrt(k * eps))
    return min(result, math.pi / 2)


def theorem_error_bound(m, d, k, epsilon, theta_tilde):
    """Per-column recovery error certificate.

    ``(m/d) eps + (m/d + 1) (sqrt(24) theta + sqrt(8 k eps)) (1 + eps)``
    bounds the distance between a reconstructed column and its clean
    counterpart, at the (d, k, theta_tilde) in force when the column was
    reconstructed.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ratio = m / d
    return ratio * epsilon + (ratio + 1.0) * (
        math.sqrt(24.0) * theta_tilde + math.sqrt(8.0 * k * epsilon)
    ) * (1.0 + epsilon)


def _effective_mu(cfg, basis):
    """Coherence bound fed to the budget formula."""
    if not cfg.estimate_mu or basis.dim == 0:
        return cfg.mu_upper
    return max(1.0, 2.0 * coherence(basis) * basis.dim / cfg.r)


def _refresh(cfg, basis, theta_tilde, omega_rng):
    """Budget event and restricted solver for a new (basis, theta_tilde):
    refreshes mu, evaluates the budget, and draws the row pattern."""
    m = basis.ambient_dim
    mu = _effective_mu(cfg, basis)
    d_formula, d_budget = _budgets(cfg, mu, m, theta_tilde)
    solver = RestrictedSolver(
        basis, sample_uniform_subset(m, min(d_budget, m), omega_rng))
    event = SubspaceEvent(basis.dim, theta_tilde, mu, d_formula, d_budget,
                          solver.omega.size)
    return event, solver


def run_lrebn(oracle, cfg):
    """Run the adaptive completion loop against an observation oracle.

    The oracle only needs ``shape``, ``entries(omega, j)``,
    ``column(j)`` and ``entry_count``.  Columns are processed in natural
    order; the row pattern is redrawn only after a subspace update unless
    ``cfg.omega_redraw`` says otherwise.  Entries are read exclusively
    through Omega-restricted and full-column oracle calls.

    Returns
    -------
    RecoveryResult
        Recovered matrix, per-column modes and records, the theta and
        budget traces (one event per subspace update, plus the initial
        state), and the oracle's final entry count.
    """
    m, n = oracle.shape
    omega_rng = RngState(cfg.seed, _STREAM_OMEGA).generator()

    basis = OrthonormalBasis.empty(m)
    k = 0
    theta = 0.0
    bound_violations = 0
    event, solver = _refresh(cfg, basis, theta, omega_rng)
    d_budget = event.d_budget

    budget_trace = [event]
    records = []
    M_tilde = np.zeros((m, n), order="F")

    for i in range(n):
        if cfg.omega_redraw == REDRAW_PER_COLUMN:
            solver = RestrictedSolver(
                basis, sample_uniform_subset(m, min(d_budget, m), omega_rng))
        coef, residual, _ = solver.fit(oracle.entries(solver.omega, i))
        thr = residual_threshold(d_budget, m, k, cfg.epsilon, theta)

        if column_test(residual, d_budget, m, k, cfg, theta):
            y_full = oracle.column(i)
            M_tilde[:, i] = y_full
            records.append(ColumnRecord(i, "FullyObserved", k, d_budget,
                                        theta, residual, thr))
            new_basis = extend_basis(basis, y_full)
            if new_basis.dim == k:
                # Numerically nothing new was added; keep the state as is.
                continue
            theta_new_col = vector_subspace_angle(y_full, basis)
            basis = new_basis
            k = basis.dim
            if k > cfg.r:
                bound_violations += 1
            theta = angle_increment(theta, theta_new_col, cfg, k)
            event, solver = _refresh(cfg, basis, theta, omega_rng)
            d_budget = event.d_budget
            budget_trace.append(event)
        else:
            # At k = 0, passing the test means every sampled entry was
            # zero; the lift through the empty basis is the zero column,
            # the only consistent completion.
            M_tilde[:, i] = solver.lift(coef)
            records.append(ColumnRecord(i, "Reconstructed", k, d_budget,
                                        theta, residual, thr))

    return RecoveryResult(
        M_tilde=M_tilde,
        observations=oracle.entry_count,
        budget_trace=budget_trace,
        bound_violations=bound_violations,
        column_records=records,
    )


def recovery_errors(result, L):
    """Per-column distances between the recovered matrix and a reference."""
    L = np.asarray(L, dtype=float)
    if L.shape != result.M_tilde.shape:
        raise ValueError("reference matrix shape does not match the result")
    return np.linalg.norm(result.M_tilde - L, axis=0)
