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

The estimated basis only ever grows by appending columns, so the basis in
force at dimension k is the first k columns of the final one.  The loop
therefore keeps only each reconstructed column's coefficients, and the
result stays factored: the final basis, the coefficients and the fully
observed columns.  The recovered matrix is materialized only when it is
read, as one product with the final basis; ``recovery_errors`` scores the
factors a block of rows at a time without materializing it.

``theta_tilde`` is maintained by the angle recursion

    theta_{k} = theta_{k-1} + (pi/2) * numerator / denominator,

where the numerator is the worst-case angle between a noisy column and
its clean counterpart, ``arcsin(min(1, eps / (1 - eps)))`` (the clean
column is unobservable; the noise model bounds the sine), and the
denominator is the new column's angle to the previous estimated subspace
floored at ``sqrt(k * eps)``.  The estimate is capped at
``(3 pi / 2) * sqrt(k * eps)`` and at pi/2.  For every eps < 1/4 the
recursion's own steps keep it below 0.91 of the first cap (the proof is
in ``angle_increment``), so in a run only the pi/2 clamp can bind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    _block_rows,
    coherence,
    extend_basis,
    vector_subspace_angle,
)
from .sampling import (RngState, _check_int, _check_mode, _check_real,
                       _check_real_matrix, sample_uniform_subset)
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

# The row-pattern redraw policies, the default first.
_OMEGA_REDRAWS = ("on-update", "per-column")
REDRAW_ON_UPDATE, REDRAW_PER_COLUMN = _OMEGA_REDRAWS


@dataclass(frozen=True)
class LrebnConfig:
    """Run parameters.

    Each field is held to one rule of ``sampling`` when the config is
    built, and holds the value its check returns: a Python float, int,
    bool or mode name.  A value of the wrong kind raises ``ValueError``
    naming the field; none is converted.  A real-number field takes an
    ``int``, a ``float`` or a numpy integer or float (``_check_real``:
    never a bool, a str, None, a complex number or NaN); a flag takes
    only a bool or a numpy bool, so ``estimate_mu="False"`` is refused,
    not read as true; a mode only one of its names.

    Attributes
    ----------
    epsilon : float
        Per-column noise bound; 0 <= epsilon < 1/4.
    delta : float
        Failure parameter; 0 < delta < 0.1 (and delta <= r**(-1/8) for
        r >= 2, which only binds at astronomically large ranks).
    r : int
        Target rank; an ``int`` or numpy integer, at least 1.  A bool or
        a float raises ``ValueError`` (the rule of ``sampling._check_int``).
    mu_upper : float
        Upper bound on the coherence of the true column space, supplied
        by the caller; finite and >= 1.
    budget_cap_to_m : bool
        Clamp budgets to m (default).  With the cap off the budget
        formula value is used in the threshold as-is, while draws are
        still physically limited to m rows.
    estimate_mu : bool
        Replace mu_upper at every budget refresh with the heuristic
        ``max(1, 2 * coherence(current basis) * k / r)``.  Clearly a
        heuristic: the true-space coherence is not observable.
    omega_redraw : {"on-update", "per-column"}
        Default redraws the row pattern only after a subspace update;
        "per-column" is an ablation that redraws for every column.
    seed : int
        Seed for the row-pattern stream; a non-negative ``int`` or numpy
        integer.  A bool, a float or a negative seed raises ``ValueError``
        when the config is built.
    """

    epsilon: float
    delta: float
    r: int
    mu_upper: float = 1.0
    budget_cap_to_m: bool = True
    estimate_mu: bool = False
    omega_redraw: str = REDRAW_ON_UPDATE
    seed: int = 0

    def __post_init__(self):
        store = functools.partial(object.__setattr__, self)
        store("epsilon", _check_epsilon(self.epsilon))
        store("delta", _check_real("delta", self.delta, 0.0, MAX_DELTA, "()"))
        store("r", _check_int("r", self.r))
        if self.r >= 2 and self.delta > self.r ** (-0.125):
            raise ValueError(
                f"delta must be <= r**(-1/8) = {self.r ** (-0.125):.6g} "
                f"for r = {self.r}"
            )
        store("mu_upper",
              _check_real("mu_upper", self.mu_upper, 1.0, ends="[)"))
        store("seed", _check_int("seed", self.seed, 0))
        store("omega_redraw", _check_mode("omega_redraw", self.omega_redraw,
                                          _OMEGA_REDRAWS))
        for name in ("budget_cap_to_m", "estimate_mu"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool; got {flag!r}")
            store(name, bool(flag))


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


@dataclass(eq=False)
class RecoveryResult:
    """Output of a run: the recovered matrix, in factored form, plus full
    accounting.

    ``column_records`` holds one ``ColumnRecord`` per column and
    ``budget_trace`` the initial ``SubspaceEvent`` plus one per subspace
    update; ``column_mode``, ``theta_trace`` and ``k_final`` are read from
    them.  ``basis`` is the final estimated basis; its first ``k`` columns
    are the basis in force at every record and event with that ``k``.

    The recovered matrix is ``basis.matrix @ coefs.T`` with the columns in
    ``observed`` written over it.  ``coefs`` is n x k_final: row i holds
    column i's coefficients in the final basis, zero past the k in force
    when it was reconstructed, and all zero for a column observed in full.
    ``observed`` maps the index of every column observed in full, whether
    or not it added a dimension, to the column as read.  ``M_tilde``
    builds the m x n matrix on first read and keeps it.  Results compare
    equal only when they are the same object.
    """

    observations: int
    budget_trace: list
    bound_violations: int
    column_records: list
    basis: OrthonormalBasis
    coefs: np.ndarray
    observed: dict

    @functools.cached_property
    def M_tilde(self):
        """The recovered m x n matrix, column-major.

        A column that passed the test at k = 0 (every sampled entry zero)
        has an all-zero row and comes back as the zero column, the only
        consistent completion; at k_final = 0 the product is all zero.
        """
        m, n = self.basis.ambient_dim, len(self.column_records)
        return self._write_rows(0, m, np.empty((m, n), order="F"))

    def _write_rows(self, i0, i1, out):
        """Write rows ``i0:i1`` of the recovered matrix into ``out`` in
        place (the product, then the fully observed columns) and return it."""
        np.matmul(self.basis.matrix[i0:i1], self.coefs.T, out=out)
        for i, y_full in self.observed.items():
            out[:, i] = y_full[i0:i1]
        return out

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
    m = _check_int("m", m)
    _check_real("theta_tilde", theta_tilde, 0.0, math.pi / 2 + 1e-12)
    d_formula = _budget_formula(mu, cfg.r, cfg.delta, m, theta_tilde)
    return d_formula, (min(d_formula, m) if cfg.budget_cap_to_m else d_formula)


def initial_budget(cfg, m):
    """Budget before any subspace has been found (theta_tilde = 0)."""
    return updated_budget(cfg, m, 0.0)


def residual_threshold(d, m, k, epsilon, theta_tilde):
    """Residual level above which a sampled column counts as novel."""
    root = math.sqrt(3.0 * d / (2.0 * m))
    return (1.0 + epsilon) * (root * theta_tilde + math.sqrt(3.0 * d * k * epsilon / (2.0 * m)))


def column_test(residual, threshold):
    """True when the sampled residual exceeds ``threshold``, the value of
    ``residual_threshold`` at the state in force.

    Residuals at or below ``RESIDUAL_FLOOR`` count as zero.  At k = 0 the
    threshold is 0, so any residual above the floor sends the column to
    full observation.
    """
    if residual < 0.0:
        raise ValueError("residual must be non-negative")
    return residual > RESIDUAL_FLOOR and residual > threshold


def angle_increment(theta_tilde_prev, theta_new_col, cfg, k):
    """Advance the angle upper bound after a subspace update.

    Parameters
    ----------
    theta_tilde_prev, theta_new_col : float
        The angle bound in force, and the angle between the newly
        observed column and the previous estimated subspace; each a real
        number in [0, pi/2] by ``sampling._check_real``.
    k : int
        Dimension after adding the column; an integer of at least 1 by
        ``sampling._check_int``.

    Returns
    -------
    float
        New theta_tilde; non-decreasing in k, capped at
        ``(3 pi / 2) sqrt(k epsilon)`` and at pi/2.

    Notes
    -----
    Starting from theta_0 = 0, the recursion alone stays below the first
    cap for every epsilon < 1/4.  The denominator is floored at
    ``sqrt(i epsilon)``, so step i is at most
    ``(pi/2) asin(eps / (1 - eps)) / sqrt(i eps)``; the sum of
    ``i**(-1/2)`` over i <= k is below ``2 sqrt(k)``; so

        theta_k < pi (asin(eps / (1 - eps)) / eps) sqrt(k eps)
                <= 1.36 pi sqrt(k eps) < (3 pi / 2) sqrt(k eps),

    since ``asin(eps / (1 - eps)) / eps`` grows with eps and is 1.359 at
    eps = 1/4.  The cap therefore binds only for a ``theta_tilde_prev``
    that no run produces.
    """
    _check_int("k", k)
    theta_tilde_prev = _check_real("theta_tilde_prev", theta_tilde_prev,
                                   0.0, math.pi / 2)
    theta_new_col = _check_real("theta_new_col", theta_new_col,
                                0.0, math.pi / 2)
    eps = cfg.epsilon
    if eps == 0.0:
        # Numerator vanishes; the estimate stays wherever it is (0).
        return theta_tilde_prev
    if theta_new_col <= 0.0:
        raise RuntimeError(
            "accepted column lies in the previous span (angle 0) while "
            "epsilon > 0; the residual test should not have fired"
        )
    numerator = math.asin(min(1.0, eps / (1.0 - eps)))
    denominator = max(theta_new_col - theta_tilde_prev, math.sqrt(k * eps))
    result = theta_tilde_prev + (math.pi / 2.0) * numerator / denominator
    return min(result, 1.5 * math.pi * math.sqrt(k * eps), math.pi / 2)


def theorem_error_bound(m, d, k, epsilon, theta_tilde):
    """Per-column recovery error certificate.

    ``(m/d) eps + (m/d + 1) (sqrt(24) theta + sqrt(8 k eps)) (1 + eps)``
    bounds the distance between a reconstructed column and its clean
    counterpart, at the (d, k, theta_tilde) in force when the column was
    reconstructed.  ``m`` and ``d`` are positive integers and ``k`` a
    non-negative one by ``sampling._check_int``; ``epsilon`` lies in the
    model's [0, 1/4) by ``synthetic._check_epsilon`` and ``theta_tilde``
    in [0, pi/2] by ``sampling._check_real``, with the 1e-12 of slack
    that ``updated_budget`` gives it.
    """
    ratio = _check_int("m", m) / _check_int("d", d)
    _check_int("k", k, 0)
    epsilon = _check_epsilon(epsilon)
    theta_tilde = _check_real("theta_tilde", theta_tilde, 0.0,
                              math.pi / 2 + 1e-12)
    return ratio * epsilon + (ratio + 1.0) * (
        math.sqrt(24.0) * theta_tilde + math.sqrt(8.0 * k * epsilon)
    ) * (1.0 + epsilon)


def _effective_mu(cfg, basis):
    """Coherence bound fed to the budget formula."""
    if not cfg.estimate_mu or basis.dim == 0:
        return cfg.mu_upper
    return max(1.0, 2.0 * coherence(basis) * basis.dim / cfg.r)


def _draw_solver(basis, d_budget, omega_rng):
    """Restricted solver on a fresh pattern of ``min(d_budget, m)`` rows."""
    m = basis.ambient_dim
    return RestrictedSolver(
        basis, sample_uniform_subset(m, min(d_budget, m), omega_rng))


def _refresh(cfg, basis, theta_tilde, omega_rng):
    """Budget event, novelty threshold and restricted solver for a new
    (basis, theta_tilde): refreshes mu, evaluates the budget and the
    threshold, and draws the row pattern."""
    m = basis.ambient_dim
    mu = _effective_mu(cfg, basis)
    d_formula, d_budget = _budgets(cfg, mu, m, theta_tilde)
    solver = _draw_solver(basis, d_budget, omega_rng)
    event = SubspaceEvent(basis.dim, theta_tilde, mu, d_formula, d_budget,
                          solver.omega.size)
    threshold = residual_threshold(d_budget, m, basis.dim, cfg.epsilon,
                                   theta_tilde)
    return event, threshold, solver


def run_lrebn(oracle, cfg):
    """Run the adaptive completion loop against an observation oracle.

    The oracle protocol is four members, and the run uses no other:

    ``shape``
        ``(m, n)``.
    ``entries(omega, j)``
        The entries of column ``j`` at rows ``omega``, in that order.
        The run passes the row pattern ``sample_uniform_subset`` drew
        (see ``sampling``): a strictly increasing, read-only ``intp``
        array, the same object for every column until the next redraw.
    ``column(j)``
        The full column ``j``, as an array the run keeps.
    ``entry_count``
        The number of distinct entries read so far; read once, at the
        end.

    Columns are processed in natural order; the row pattern is redrawn
    only after a subspace update unless ``cfg.omega_redraw`` says
    otherwise.  Entries are read exclusively through Omega-restricted
    and full-column oracle calls.

    Between two updates every column is decided, and recorded, at one
    state: the latest ``SubspaceEvent`` and the threshold computed from it.

    Returns
    -------
    RecoveryResult
        Recovered matrix, final estimated basis, per-column modes and
        records, the theta and budget traces (one event per subspace
        update, plus the initial state), and the oracle's final entry
        count.
    """
    m, n = oracle.shape
    omega_rng = RngState(cfg.seed, _STREAM_OMEGA).generator()

    basis = OrthonormalBasis.empty(m)
    event, threshold, solver = _refresh(cfg, basis, 0.0, omega_rng)
    budget_trace = [event]
    records = []
    # Row i: column i's coefficients in the final basis, zero-padded past
    # the k in force when it was reconstructed; all zero for a column
    # observed in full.  At most m wide up front: k never exceeds m.
    coefs = np.zeros((n, min(cfg.r, m)))
    observed = {}

    for i in range(n):
        if cfg.omega_redraw == REDRAW_PER_COLUMN:
            solver = _draw_solver(basis, event.d_budget, omega_rng)
        coef, residual = solver.fit(oracle.entries(solver.omega, i))
        fired = column_test(residual, threshold)
        records.append(ColumnRecord(
            i, "FullyObserved" if fired else "Reconstructed", event.k,
            event.d_budget, event.theta_tilde, residual, threshold))
        if not fired:
            coefs[i, :event.k] = coef
            continue
        y_full = oracle.column(i)
        observed[i] = y_full
        new_basis = extend_basis(basis, y_full)
        if new_basis.dim == basis.dim:
            # Numerically nothing new was added; keep the state as is.
            continue
        theta = angle_increment(event.theta_tilde,
                                vector_subspace_angle(y_full, basis), cfg,
                                new_basis.dim)
        basis = new_basis
        event, threshold, solver = _refresh(cfg, basis, theta, omega_rng)
        budget_trace.append(event)
        if basis.dim > coefs.shape[1]:
            coefs = np.pad(coefs, ((0, 0), (0, basis.dim - coefs.shape[1])))

    return RecoveryResult(
        observations=oracle.entry_count,
        budget_trace=budget_trace,
        bound_violations=max(0, basis.dim - cfg.r),  # one per update past r
        column_records=records,
        basis=basis,
        coefs=coefs[:, :basis.dim],
        observed=observed,
    )


def recovery_errors(result, L):
    """Per-column distances between the recovered matrix and a reference.

    Works from the result's factors and never materializes ``M_tilde``:
    one block of rows at a time, in a reused buffer of about a megabyte,
    the block of the recovered matrix is written and the reference rows
    are subtracted; the squares are summed per column.  A C-ordered
    reference (as generated and as read from file) is read once,
    contiguously.  Each column's sum of squares is added up one block's
    partial sum at a time, so the block height, and with it
    ``linalg._BLOCK_BYTES``, fixes the order of the additions and thereby
    the last bits of every error.

    Raises ``ValueError`` when the reference is not a matrix of integers
    or floats (``sampling._check_real_matrix``: a bool, complex, str,
    bytes, object or datetime one is refused, never parsed or cast), when
    its shape differs from the result's, or when any distance is not
    finite (a NaN or inf in the reference, or one beyond the float range).
    """
    L = np.asarray(_check_real_matrix("reference matrix", L), dtype=float)
    m, n = result.basis.ambient_dim, len(result.column_records)
    if L.shape != (m, n):
        raise ValueError("reference matrix shape does not match the result")
    height = _block_rows(n)
    buf = np.empty((min(height, m), n))
    sq = np.zeros(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for i0 in range(0, m, height):
            i1 = min(i0 + height, m)
            block = result._write_rows(i0, i1, buf[:i1 - i0])
            np.subtract(block, L[i0:i1], out=block)
            np.square(block, out=block)
            sq += block.sum(axis=0)
    if not np.isfinite(sq).all():
        raise ValueError(
            "a column error is not finite: the reference matrix holds a NaN "
            "or inf entry, or one too large to square")
    return np.sqrt(sq, out=sq)
