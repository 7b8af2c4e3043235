"""
Executable oracles for the inequalities the recovery analysis rests on.

Each check turns one claimed inequality into a Monte-Carlo experiment.
Deterministic claims (kcoh, noisycoh, ind, ededler, blum) must show zero
violations at a 1e-9 margin tolerance; probabilistic claims (conc, ks14,
matcher) report an empirical violation frequency that must stay within
the stated bound plus three binomial standard errors, so finite-sample
noise cannot flake a verdict.

Every report is reproducible bit for bit from (name, params, seed): all
randomness flows through per-trial substreams of the given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    coherence,
    orthonormalize,
    project,
    subspace_subspace_angle,
    vector_coherence,
    vector_subspace_angle,
    vector_vector_angle,
)
from .lrebn import _budget_formula, residual_threshold
from .sampling import RngState, sample_uniform_subset
from .synthetic import MAX_EPSILON

__all__ = [
    "DET_TOL",
    "CheckReport",
    "check_kcoh",
    "check_noisycoh",
    "check_ind",
    "check_conc",
    "check_ks14",
    "check_matcher",
    "check_ededler",
    "check_blum",
    "CHECK_NAMES",
    "run_check",
]

# Margin tolerance for deterministic inequalities.
DET_TOL = 1e-9


@dataclass
class CheckReport:
    """Outcome of one check.

    ``violations`` counts trials whose margin fell below the tolerance;
    ``worst_margin`` is the most negative slack seen (0.0 when nothing
    was measured).  ``theoretical_bound`` is None for deterministic
    claims, where the verdict is simply "no violations"; otherwise the
    verdict compares the violation rate against bound + 3 standard
    errors.  ``denominator`` is the trial count the rate is measured
    over (applicable trials only).
    """

    name: str
    trials: int
    violations: int
    worst_margin: float
    params: dict = field(default_factory=dict)
    denominator: int = 0
    theoretical_bound: float | None = None
    seed: int | None = None
    not_applicable: bool = False

    @property
    def violation_rate(self):
        if self.denominator <= 0:
            return 0.0
        return self.violations / self.denominator

    @property
    def slack(self):
        """Three binomial standard errors at the larger of the empirical
        rate and the theoretical bound."""
        if self.theoretical_bound is None or self.denominator <= 0:
            return 0.0
        p = self.violation_rate
        b = min(self.theoretical_bound, 1.0)
        var = max(p * (1.0 - p), b * (1.0 - b))
        return 3.0 * math.sqrt(var / self.denominator)

    @property
    def verdict(self):
        if self.not_applicable or self.denominator == 0:
            return "N/A"
        if self.theoretical_bound is None:
            return "PASS" if self.violations == 0 else "FAIL"
        if self.theoretical_bound >= 1.0:
            return "N/A"
        ok = self.violation_rate <= self.theoretical_bound + self.slack
        return "PASS" if ok else "FAIL"


def _as_state(rng, name):
    """Per-check root stream from an int seed or RngState."""
    stream = _CHECKS[name][0]
    if isinstance(rng, RngState):
        return rng.substream(stream)
    if isinstance(rng, (int, np.integer)):
        return RngState(int(rng), stream)
    raise TypeError(
        "checks need a replayable stream; pass an integer seed or RngState"
    )


def _haar_basis(gen, m, k):
    """Orthonormalized Gaussian m x k frame (Haar-distributed span)."""
    for _ in range(16):
        cand = orthonormalize(gen.standard_normal((m, k)))
        if cand.dim == k:
            return cand
    raise RuntimeError("failed to draw a full-rank random frame")


def _complement_frame(gen, basis, k):
    """k orthonormal directions orthogonal to ``basis``."""
    m = basis.ambient_dim
    for _ in range(16):
        raw = gen.standard_normal((m, k))
        raw -= basis.matrix @ (basis.matrix.T @ raw)
        cand = orthonormalize(raw)
        if cand.dim == k:
            return cand
    raise RuntimeError("failed to draw a complement frame")


def _rotated_copy(gen, basis, max_angle):
    """Rotate each basis direction by its own angle <= max_angle into
    fresh orthogonal directions; the result is again orthonormal and its
    largest principal angle to ``basis`` equals the largest per-column
    angle."""
    k = basis.dim
    w = _complement_frame(gen, basis, k)
    angles = gen.uniform(0.0, max_angle, size=k)
    mat = basis.matrix * np.cos(angles) + w.matrix * np.sin(angles)
    return OrthonormalBasis(mat)


def _unit(gen, m):
    v = gen.standard_normal(m)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Deterministic inequalities
# ---------------------------------------------------------------------------

def check_kcoh(m, r, k, trials, rng):
    """Nested-subspace coherence: k mu(S) <= r mu(U) for any k-dim
    subspace S of an r-dim U.  Every fourth trial plants a coordinate
    axis into U to probe the maximally coherent corner."""
    if not 1 <= k <= r <= m:
        raise ValueError("need 1 <= k <= r <= m")
    state = _as_state(rng, "kcoh")
    violations = 0
    worst = math.inf
    for t in range(trials):
        gen = state.substream(t).generator()
        raw = gen.standard_normal((m, r))
        spiked = t % 4 == 3
        if spiked:
            axis = np.zeros(m)
            axis[int(gen.integers(m))] = 1.0
            raw[:, 0] = axis
        u = orthonormalize(raw)
        if u.dim < r:
            raw = gen.standard_normal((m, r))
            u = orthonormalize(raw)
        sub = _haar_basis_from(gen, u, k)
        margin = r * coherence(u) - k * coherence(sub)
        worst = min(worst, margin)
        if margin < -DET_TOL:
            violations += 1
    return CheckReport(
        name="kcoh", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"m": m, "r": r, "k": k, "spiked_every": 4},
        denominator=trials, seed=state.seed,
    )


def _haar_basis_from(gen, parent, k):
    """Random k-dim subspace of the span of ``parent``."""
    for _ in range(16):
        cand = orthonormalize(parent.matrix @ gen.standard_normal((parent.dim, k)))
        if cand.dim == k:
            return cand
    raise RuntimeError("failed to draw a nested subspace")


def check_noisycoh(m, k, theta_max, trials, rng):
    """Coherence under perturbation:
    mu(S~) <= 2 mu(S) + 2 (m/k) theta(S~, S)^2, using the realized angle
    of each perturbed copy."""
    if k > m // 2:
        raise ValueError("need k <= m/2 to rotate into the complement")
    if not 0.0 < theta_max < math.pi / 2:
        raise ValueError("theta_max must lie in (0, pi/2)")
    state = _as_state(rng, "noisycoh")
    violations = 0
    worst = math.inf
    for t in range(trials):
        gen = state.substream(t).generator()
        u = _haar_basis(gen, m, k)
        tilted = _rotated_copy(gen, u, theta_max)
        theta = subspace_subspace_angle(tilted, u)
        margin = 2.0 * coherence(u) + 2.0 * (m / k) * theta ** 2 - coherence(tilted)
        worst = min(worst, margin)
        if margin < -DET_TOL:
            violations += 1
    return CheckReport(
        name="noisycoh", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"m": m, "k": k, "theta_max": theta_max},
        denominator=trials, seed=state.seed,
    )


def check_ind(k_max, epsilon, trials, rng=0):
    """Recursion cap: any sequence a_0 = 0,
    a_k <= a_{k-1} + (pi/2) sqrt(eps/k) stays below (3 pi/2) sqrt(k eps).

    Sequence 0 is the extremal one (every step maximal); the rest scale
    each step by an independent uniform factor in [0, 1].  A sequence
    counts as one violation if any of its k_max prefixes breaks the cap
    by more than 1e-12.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    state = _as_state(rng, "ind")
    ks = np.arange(1, k_max + 1, dtype=float)
    max_steps = (math.pi / 2.0) * np.sqrt(epsilon / ks)
    caps = 1.5 * math.pi * np.sqrt(ks * epsilon)
    violations = 0
    worst = math.inf
    for t in range(trials):
        if t == 0:
            c = np.ones(k_max)
        else:
            c = state.substream(t).generator().uniform(size=k_max)
        margins = caps - np.cumsum(c * max_steps)
        worst = min(worst, float(margins.min()))
        if margins.min() < -1e-12:
            violations += 1
    return CheckReport(
        name="ind", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"k_max": k_max, "epsilon": epsilon, "extremal_first": True},
        denominator=trials, seed=state.seed,
    )


def check_ededler(m_values, r_values, delta_values, theta_values=None):
    """Budget-dominance arithmetic.

    For the unclamped budget d at (mu, r, delta, theta) the claim is

        d / 4 > 18 r mu ln(1/delta)^2 + 18 theta^2 ln(1/delta)^2,

    which after cancelling the identical mu terms reduces to
    2 m ln(r/delta) > 18 ln(1/delta)^2, guaranteed by the side condition
    9 ln(1/delta) < m.  The mu terms cancel exactly, so mu = 1 is used;
    theta = 0 gives equality, which the tolerance admits.  Grid points
    breaking the side condition are skipped and counted.
    """
    if theta_values is None:
        theta_values = np.linspace(0.0, math.pi / 2, 9)
    trials = 0
    skipped = 0
    violations = 0
    worst = math.inf
    for m in m_values:
        for r in r_values:
            for delta in delta_values:
                if not 0.0 < delta < 1.0:
                    raise ValueError("delta values must lie in (0, 1)")
                if 9.0 * math.log(1.0 / delta) >= m:
                    skipped += 1
                    continue
                ln_inv = math.log(1.0 / delta)
                for theta in theta_values:
                    d = max(1, math.ceil(
                        _budget_formula(1.0, r, delta, m, theta)))
                    margin = d / 4.0 - (
                        18.0 * r * ln_inv ** 2 + 18.0 * theta ** 2 * ln_inv ** 2
                    )
                    trials += 1
                    worst = min(worst, margin)
                    if margin < -DET_TOL:
                        violations += 1
    return CheckReport(
        name="ededler", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={
            "m_values": list(m_values), "r_values": list(r_values),
            "delta_values": list(delta_values),
            "theta_points": len(theta_values), "skipped_cells": skipped,
        },
        denominator=trials, seed=None,
    )


def check_blum(m, k, trials, rng):
    """Single-vector subspace perturbation: with U = span(a_1..a_{k-1}),
    V = span(U, b) and V~ = span(U, b~),

        theta(V, V~) <= (pi/2) * theta(b~, b) / theta(b~, U).

    Trials rotate through three perturbation styles: multiplicative
    Gaussian noise on b across eight orders of magnitude, an unrelated
    random direction, and a perturbation confined to the complement of
    U.  Trials where b~ (or b) falls into U are skipped and counted."""
    if not 2 <= k <= m:
        raise ValueError("need 2 <= k <= m")
    state = _as_state(rng, "blum")
    violations = 0
    skipped = 0
    worst = math.inf
    for t in range(trials):
        gen = state.substream(t).generator()
        u = _haar_basis(gen, m, k - 1)
        b = _unit(gen, m)
        style = t % 3
        if style == 0:
            scale = 10.0 ** gen.uniform(-4.0, 0.5)
            btilde = b + scale * gen.standard_normal(m)
        elif style == 1:
            btilde = gen.standard_normal(m)
        else:
            perp = b - project(u, b)
            nrm = np.linalg.norm(perp)
            if nrm < 1e-8:
                skipped += 1
                continue
            btilde = perp / nrm + 0.1 * gen.standard_normal(m)
            btilde -= project(u, btilde)
        nrm = np.linalg.norm(btilde)
        if nrm < 1e-12:
            skipped += 1
            continue
        btilde /= nrm
        theta_bu = vector_subspace_angle(btilde, u)
        if theta_bu < 1e-8:
            skipped += 1
            continue
        v = orthonormalize(list(u.matrix.T) + [b])
        vt = orthonormalize(list(u.matrix.T) + [btilde])
        if v.dim < k or vt.dim < k:
            skipped += 1
            continue
        lhs = subspace_subspace_angle(v, vt)
        rhs = (math.pi / 2.0) * vector_vector_angle(btilde, b) / theta_bu
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -DET_TOL:
            violations += 1
    return CheckReport(
        name="blum", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"m": m, "k": k, "skipped": skipped},
        denominator=trials - skipped, seed=state.seed,
    )


# ---------------------------------------------------------------------------
# Probabilistic inequalities
# ---------------------------------------------------------------------------

def check_conc(m, k, d, epsilon, delta, trials, rng):
    """Fired-test angle separation.

    Build a clean (k-1)-dim subspace, a perturbed copy of it with a known
    realized angle theta, and a noisy unit column; sample d rows.  When
    the restricted residual beats the threshold computed with the true
    theta, the column's full angle to the perturbed subspace must be at
    least theta + sqrt(k eps).  A violation needs the row-sampling
    concentration event to fail, so the frequency over all trials is
    compared against 2 delta.

    ``d=None`` derives the budget from the sampling formula (mu = 1,
    rank k, theta = sqrt(k eps)) clamped to m.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= epsilon < MAX_EPSILON:
        raise ValueError(f"epsilon must lie in [0, {MAX_EPSILON})")
    state = _as_state(rng, "conc")
    sqrt_keps = math.sqrt(k * epsilon)
    if d is None:
        d = min(m, max(1, math.ceil(
            _budget_formula(1.0, k, delta, m, sqrt_keps))))
    d = int(d)
    if not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m")
    fired = 0
    violations = 0
    worst = math.inf
    for t in range(trials):
        gen = state.substream(t).generator()
        if k == 1:
            tilted = OrthonormalBasis.empty(m)
            theta = 0.0
            clean = _unit(gen, m)
        else:
            base = _haar_basis(gen, m, k - 1)
            spread = min(math.pi / 4, 1.5 * math.pi * math.sqrt((k - 1) * epsilon))
            tilted = _rotated_copy(gen, base, gen.uniform(0.0, spread))
            theta = subspace_subspace_angle(tilted, base)
            psi = gen.uniform(0.0, math.pi / 2)
            inside = base.matrix @ _unit(gen, k - 1)
            outside = _complement_frame(gen, base, 1).matrix[:, 0]
            clean = math.cos(psi) * inside + math.sin(psi) * outside
        column = clean + epsilon * _unit(gen, m)
        omega = sample_uniform_subset(m, d, gen)
        residual = RestrictedSolver(tilted, omega).fit(column[omega])[1]
        if residual > residual_threshold(d, m, k, epsilon, theta):
            fired += 1
            angle = vector_subspace_angle(column, tilted)
            margin = angle - (theta + sqrt_keps)
            worst = min(worst, margin)
            if margin < -DET_TOL:
                violations += 1
    return CheckReport(
        name="conc", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"m": m, "k": k, "d": d, "epsilon": epsilon, "delta": delta,
                "fired": fired},
        denominator=trials, theoretical_bound=2.0 * delta, seed=state.seed,
    )


def check_ks14(m, k, d, delta, trials, rng):
    """Two-sided restricted-residual concentration, in squared norms
    (Krishnamurthy & Singh, "On the power of adaptivity in matrix
    completion and approximation", 2014).

    Per trial: random k-dim subspace S, Gaussian y, uniform d-subset
    Omega.  With R2 the full squared residual of y against S and r2 the
    squared least-squares residual of the sampled coordinates:

        (d (1 - alpha) - k mu(S) beta / (1 - zeta)) / m * R2
            <= r2 <= (1 + alpha) (d / m) * R2

    where alpha and beta depend on ln(1/delta) and the coherence of the
    full residual vector, and zeta uses the subspace coherence (the rank
    entering its log factor is taken as k, the only rank in scope here).

    alpha and zeta are data dependent, so applicability is decided per
    trial: the upper bound needs alpha < 1/2, the lower additionally
    zeta < 1/3.  The report gates on upper-bound violations over
    upper-applicable trials against a 2 delta bound; lower-bound status
    is recorded in params.  ``d=None`` picks, per trial, the smallest d
    satisfying the stated preconditions and alpha < 1/2.
    """
    state = _as_state(rng, "ks14")
    ln_inv = math.log(1.0 / delta)
    beta = (1.0 + 2.0 * ln_inv) ** 2
    upper_applicable = 0
    lower_applicable = 0
    violations = 0
    lower_violations = 0
    worst = math.inf
    d_used = []
    for t in range(trials):
        gen = state.substream(t).generator()
        basis = _haar_basis(gen, m, k)
        y = gen.standard_normal(m)
        resid_full = y - project(basis, y)
        r2_full = float(resid_full @ resid_full)
        mu_sub = coherence(basis)
        mu_vec = vector_coherence(resid_full)

        d_pre = max(
            (8.0 / 3.0) * k * mu_sub * math.log(2.0 * k / delta),
            4.0 * mu_vec * ln_inv,
        )
        if d is None:
            # Smallest d with alpha(d) < 1/2: solve the quadratic in
            # 1/sqrt(d) and step one past the root.
            a_coef = math.sqrt(2.0 * mu_vec * ln_inv)
            b_coef = (2.0 * mu_vec / 3.0) * ln_inv
            root = (-a_coef + math.sqrt(a_coef ** 2 + 2.0 * b_coef)) / (2.0 * b_coef)
            d_alpha = 1.0 / root ** 2
            d_t = min(m, int(math.ceil(max(d_pre, d_alpha))) + 1)
        else:
            d_t = int(d)
        d_used.append(d_t)

        alpha = (
            math.sqrt(2.0 * mu_vec * ln_inv / d_t)
            + (2.0 * mu_vec / (3.0 * d_t)) * ln_inv
        )
        zeta = math.sqrt((8.0 * k * mu_sub / (3.0 * d_t)) * math.log(2.0 * k / delta))

        use_upper = alpha < 0.5 and d_t >= d_pre
        use_lower = use_upper and zeta < 1.0 / 3.0
        if not use_upper:
            continue

        omega = sample_uniform_subset(m, d_t, gen)
        r2_restricted = RestrictedSolver(basis, omega).fit(y[omega])[1] ** 2

        upper_applicable += 1
        margin = (1.0 + alpha) * (d_t / m) * r2_full - r2_restricted
        worst = min(worst, margin)
        if margin < -1e-12:
            violations += 1
        if use_lower:
            lower_applicable += 1
            lower = ((d_t * (1.0 - alpha) - k * mu_sub * beta / (1.0 - zeta)) / m) * r2_full
            if r2_restricted < lower - 1e-12:
                lower_violations += 1
    return CheckReport(
        name="ks14", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={
            "m": m, "k": k, "delta": delta,
            "d": "per-trial" if d is None else int(d),
            "d_min": int(min(d_used)) if d_used else 0,
            "d_max": int(max(d_used)) if d_used else 0,
            "upper_applicable": upper_applicable,
            "lower_applicable": lower_applicable,
            "lower_violations": lower_violations,
        },
        denominator=upper_applicable, theoretical_bound=2.0 * delta,
        seed=state.seed, not_applicable=upper_applicable == 0,
    )


def check_matcher(n_dim, r, L_bound, epsilon_chern, trials, rng, num_draws=200):
    """Matrix Chernoff lower tail for sums of sampled rank-one terms.

    One random orthonormal n_dim x r frame is drawn; each trial sums
    ``num_draws`` outer products of uniformly sampled rows (scaled so the
    largest term has top eigenvalue L_bound; with ``L_bound=None`` the
    rows are used as they come).  The r-th eigenvalue of the expectation
    is exact by construction, and the empirical frequency of
    lambda_r(Y) < (1 - eps) mu_r is compared to

        r * (e^{-eps} / (1 - eps)^{1 - eps})^{mu_r / L}.

    The exponent is the standard negative one; a bound >= 1 is flagged
    vacuous and the verdict is N/A.
    """
    if not 0.0 <= epsilon_chern < 1.0:
        raise ValueError("epsilon_chern must lie in [0, 1)")
    if not 1 <= r <= n_dim:
        raise ValueError("need 1 <= r <= n_dim")
    state = _as_state(rng, "matcher")
    rows = _haar_basis(state.substream(0).generator(), n_dim, r).matrix
    row_sq = np.einsum("ij,ij->i", rows, rows)
    max_row = float(np.max(row_sq))
    scale = 1.0 if L_bound is None else float(L_bound) / max_row
    l_eff = max_row * scale
    mu_r = num_draws * scale / n_dim
    ratio = mu_r / l_eff
    eps = float(epsilon_chern)
    if eps == 0.0:
        tail = float(r)
    else:
        tail = r * math.exp(ratio * (-eps - (1.0 - eps) * math.log1p(-eps)))
    cutoff = (1.0 - eps) * mu_r

    violations = 0
    worst = math.inf
    for t in range(1, trials + 1):
        gen = state.substream(t).generator()
        idx = gen.integers(0, n_dim, size=num_draws)
        sampled = rows[idx, :]
        y = scale * (sampled.T @ sampled)
        lam_r = float(np.linalg.eigvalsh(y)[0])
        margin = lam_r - cutoff
        worst = min(worst, margin)
        if lam_r < cutoff:
            violations += 1
    return CheckReport(
        name="matcher", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={
            "n_dim": n_dim, "r": r, "num_draws": num_draws,
            "L": l_eff, "mu_r": mu_r, "epsilon_chern": eps,
            "vacuous": tail >= 1.0,
        },
        denominator=trials, theoretical_bound=min(tail, 1.0) if tail < 1.0 else tail,
        seed=state.seed,
    )


def _finite(x):
    return 0.0 if x == math.inf else float(x)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# name -> (stream label, default trials, default parameters).  A trials
# default of None marks a grid-driven check that takes neither trials
# nor a seed.  ``run_check`` looks ``check_<name>`` up in the module
# globals at call time, so a rebound check function is the one that runs.
_CHECKS = {
    "kcoh": (11, 10_000, dict(m=20, r=5, k=2)),
    "noisycoh": (12, 10_000, dict(m=30, k=3, theta_max=0.3)),
    "ind": (13, 200, dict(k_max=10_000, epsilon=0.01)),
    "conc": (14, 5_000, dict(m=200, k=3, d=None, epsilon=0.01, delta=0.05)),
    "ks14": (15, 5_000, dict(m=500, k=4, d=None, delta=0.05)),
    "matcher": (16, 10_000, dict(n_dim=50, r=5, L_bound=None,
                                 epsilon_chern=0.5, num_draws=200)),
    "ededler": (17, None, dict(m_values=(40, 100, 400, 1000),
                               r_values=(1, 2, 4, 8),
                               delta_values=(0.09, 0.05, 0.01, 0.001))),
    "blum": (18, 10_000, dict(m=20, k=3)),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name, trials=None, seed=0, **overrides):
    """Run one named check with its default parameterization.

    ``trials`` falls back to a per-check default; keyword overrides are
    merged into the default parameters.  The grid-driven ededler check
    ignores trials and seed.
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    _, default_trials, defaults = _CHECKS[name]
    params = dict(defaults, **overrides)
    func = globals()[f"check_{name}"]
    if default_trials is None:
        return func(**params)
    n_trials = default_trials if trials is None else int(trials)
    return func(trials=n_trials, rng=seed, **params)
