"""
Executable oracles for the inequalities the recovery analysis rests on.

Each check turns one claimed inequality into a Monte-Carlo experiment.
Deterministic claims (kcoh, noisycoh, ind, ededler, blum) must show zero
violations at a 1e-9 margin tolerance; probabilistic claims (conc, ks14,
matcher) report an empirical violation frequency that must stay within
the stated bound plus three binomial standard errors, so finite-sample
noise cannot flake a verdict.

Every report is reproducible bit for bit from (name, params, seed): all
randomness flows through per-trial substreams of the given seed.  Each
check runs in two phases per chunk of trials.  A Python loop makes every
trial's draws from that trial's own substream; the linear algebra then
runs once over the stacked trials (QR frames, batched SVDs and
eigenvalues).  The chunk size bounds memory and changes no result.
Coherences, projections of vectors and angles come from ``linalg``,
called on the stacks: the rules the completion run itself uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    LSTSQ_RCOND,
    coherence,
    project,
    subspace_subspace_angle,
    vector_coherence,
    vector_subspace_angle,
    vector_vector_angle,
)
from .lrebn import _budget_formula, residual_threshold
from .sampling import RngState, sample_uniform_subset
from .synthetic import _check_epsilon

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


def _as_state(rng, name, trials):
    """Per-check root stream from an int seed or RngState.  Every
    trial-driven check calls this before its first draw, so it also
    validates ``trials``."""
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be a positive integer; got {trials}")
    stream = _CHECKS[name][0]
    if isinstance(rng, RngState):
        return rng.substream(stream)
    if isinstance(rng, (int, np.integer)):
        return RngState(int(rng), stream)
    raise TypeError(
        "checks need a replayable stream; pass an integer seed or RngState"
    )


# ---------------------------------------------------------------------------
# Batched linear algebra
# ---------------------------------------------------------------------------

# Trials per stacked step, and the byte cap on one stacked float64
# temporary; a check takes the smaller of the two.  Larger stacks were no
# faster, and the heap a check leaves resident grows with them.  Chunking
# bounds memory only: every trial's draws and integer outcomes are the
# same at any chunk size, and margins agree up to rounding.
_CHUNK_TRIALS = 128
_CHUNK_BYTES = 250_000


def _chunks(first, stop, floats_per_trial):
    """Consecutive ranges of trial indices covering [first, stop)."""
    size = max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES // (8 * floats_per_trial)))
    for lo in range(first, stop, size):
        yield range(lo, min(lo + size, stop))


def _generators(state, chunk):
    return [state.substream(t).generator() for t in chunk]


def _reject(basis, x):
    """Each ``x`` minus its projection onto the span of its ``basis``."""
    return x - basis @ (np.swapaxes(basis, -1, -2) @ x)


def _frames(raw):
    """Orthonormal frames of a (t, m, k) stack, and a full-rank flag each.

    QR with every column's sign set so that diag(R) is positive gives the
    frame ``orthonormalize`` builds by Gram-Schmidt, up to rounding.
    |R_jj| is the norm of column j's residual after the columns before
    it, so a frame is flagged where ``orthonormalize`` would drop a
    column at ``DEFAULT_RANK_TOL``.
    """
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q *= np.where(diag < 0.0, -1.0, 1.0)[:, None, :]
    return q, np.all(np.abs(diag) > DEFAULT_RANK_TOL, axis=1)


def _full_frames(raw):
    """Frames of a (t, m, k) stack drawn from a continuous law.  A
    rank-deficient frame has probability zero and raises ``RuntimeError``:
    no trial ever redraws."""
    q, full = _frames(raw)
    if not full.all():
        raise RuntimeError("drew a rank-deficient random frame")
    return q


def _rotated(base, w, angles):
    """Turn each direction of ``base`` by its own angle toward the matching
    direction of the orthogonal frame ``w``; the result is again
    orthonormal and its largest principal angle to ``base`` equals the
    largest per-column angle."""
    return base * np.cos(angles)[:, None, :] + w * np.sin(angles)[:, None, :]


def _restricted_residuals(basis, y, mask):
    """Sampled-row least-squares residual norms of a stack of problems:
    ``|| y_omega - B_omega pinv(B_omega) y_omega ||`` per entry, with
    omega given as a (t, m) boolean row mask.

    Zeroing the unsampled rows changes neither the singular values of
    ``B_omega`` nor the residual, so omegas of different sizes share one
    batched SVD.  Singular values at or below ``LSTSQ_RCOND`` times the
    largest are dropped: the rank rule of ``RestrictedSolver``.
    """
    y = y * mask
    if basis.shape[2] == 0 or len(y) == 0:
        return np.linalg.norm(y, axis=1)
    u, s, _ = np.linalg.svd(basis * mask[:, :, None], full_matrices=False)
    u *= (s > LSTSQ_RCOND * s[:, :1])[:, None, :]
    return np.linalg.norm(y - project(u, y), axis=1)


def _check_unit_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1); got {delta}")


def _tally(margins, tol, worst, violations):
    """Fold a chunk's margins into the running worst margin and count."""
    if margins.size:
        worst = min(worst, float(margins.min()))
    return worst, violations + int(np.count_nonzero(margins < -tol))


# ---------------------------------------------------------------------------
# Deterministic inequalities
# ---------------------------------------------------------------------------

def check_kcoh(m, r, k, trials, rng):
    """Nested-subspace coherence: k mu(S) <= r mu(U) for any k-dim
    subspace S of an r-dim U.  Every fourth trial plants a coordinate
    axis into U to probe the maximally coherent corner."""
    if not 1 <= k <= r <= m:
        raise ValueError("need 1 <= k <= r <= m")
    state = _as_state(rng, "kcoh", trials)
    violations = 0
    worst = math.inf
    for chunk in _chunks(0, trials, m * r):
        raw = np.empty((len(chunk), m, r))
        coef = np.empty((len(chunk), r, k))
        for i, (t, gen) in enumerate(zip(chunk, _generators(state, chunk))):
            raw[i] = gen.standard_normal((m, r))
            if t % 4 == 3:
                raw[i, :, 0] = 0.0
                raw[i, int(gen.integers(m)), 0] = 1.0
            coef[i] = gen.standard_normal((r, k))
        u = _full_frames(raw)
        sub = _full_frames(u @ coef)
        margins = r * coherence(u) - k * coherence(sub)
        worst, violations = _tally(margins, DET_TOL, worst, violations)
    return CheckReport(
        name="kcoh", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={"m": m, "r": r, "k": k, "spiked_every": 4},
        denominator=trials, seed=state.seed,
    )


def check_noisycoh(m, k, theta_max, trials, rng):
    """Coherence under perturbation:
    mu(S~) <= 2 mu(S) + 2 (m/k) theta(S~, S)^2, using the realized angle
    of each perturbed copy."""
    if not 1 <= k <= m // 2:
        raise ValueError("need 1 <= k <= m/2 to rotate into the complement")
    if not 0.0 < theta_max < math.pi / 2:
        raise ValueError("theta_max must lie in (0, pi/2)")
    state = _as_state(rng, "noisycoh", trials)
    violations = 0
    worst = math.inf
    for chunk in _chunks(0, trials, m * k):
        raw_u = np.empty((len(chunk), m, k))
        raw_w = np.empty((len(chunk), m, k))
        angles = np.empty((len(chunk), k))
        for i, gen in enumerate(_generators(state, chunk)):
            raw_u[i] = gen.standard_normal((m, k))
            raw_w[i] = gen.standard_normal((m, k))
            angles[i] = gen.uniform(0.0, theta_max, size=k)
        u = _full_frames(raw_u)
        tilted = _rotated(u, _full_frames(_reject(u, raw_w)), angles)
        theta = subspace_subspace_angle(tilted, u)
        margins = (2.0 * coherence(u) + 2.0 * (m / k) * theta ** 2
                   - coherence(tilted))
        worst, violations = _tally(margins, DET_TOL, worst, violations)
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
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite; got {epsilon}")
    state = _as_state(rng, "ind", trials)
    ks = np.arange(1, k_max + 1, dtype=float)
    max_steps = (math.pi / 2.0) * np.sqrt(epsilon / ks)
    caps = 1.5 * math.pi * np.sqrt(ks * epsilon)
    violations = 0
    worst = math.inf
    for chunk in _chunks(0, trials, k_max):
        c = np.ones((len(chunk), k_max))
        for i, t in enumerate(chunk):
            if t != 0:
                c[i] = state.substream(t).generator().uniform(size=k_max)
        c *= max_steps
        np.cumsum(c, axis=1, out=c)
        lows = np.min(caps - c, axis=1)
        worst, violations = _tally(lows, 1e-12, worst, violations)
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
    for delta in delta_values:
        _check_unit_delta(delta)
    if theta_values is None:
        theta_values = np.linspace(0.0, math.pi / 2, 9)
    trials = 0
    skipped = 0
    violations = 0
    worst = math.inf
    for m in m_values:
        for r in r_values:
            for delta in delta_values:
                if 9.0 * math.log(1.0 / delta) >= m:
                    skipped += 1
                    continue
                ln_inv = math.log(1.0 / delta)
                for theta in theta_values:
                    d = _budget_formula(1.0, r, delta, m, theta)
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
    state = _as_state(rng, "blum", trials)
    violations = 0
    skipped = 0
    worst = math.inf
    for chunk in _chunks(0, trials, m * k):
        raw_u = np.empty((len(chunk), m, k - 1))
        b = np.empty((len(chunk), m))
        noise = np.empty((len(chunk), m))
        scale = np.zeros(len(chunk))
        for i, (t, gen) in enumerate(zip(chunk, _generators(state, chunk))):
            raw_u[i] = gen.standard_normal((m, k - 1))
            b[i] = gen.standard_normal(m)
            if t % 3 == 0:
                scale[i] = 10.0 ** gen.uniform(-4.0, 0.5)
            noise[i] = gen.standard_normal(m)
        u = _full_frames(raw_u)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        style = np.arange(chunk.start, chunk.stop) % 3
        btilde = np.where(style[:, None] == 0, b + scale[:, None] * noise, noise)
        # Style 2: b's component orthogonal to U, plus noise, projected
        # back into the complement of U.
        perp = b - project(u, b)
        perp_nrm = np.linalg.norm(perp, axis=1)
        keep = (style != 2) | (perp_nrm >= 1e-8)
        two = (style == 2) & keep
        x = perp[two] / perp_nrm[two, None] + 0.1 * noise[two]
        btilde[two] = x - project(u[two], x)
        nrm = np.linalg.norm(btilde, axis=1)
        keep &= nrm >= 1e-12
        u, b, btilde = u[keep], b[keep], btilde[keep] / nrm[keep, None]
        theta_bu = vector_subspace_angle(btilde, u)
        v, v_full = _frames(np.concatenate([u, b[..., None]], axis=2))
        vt, vt_full = _frames(np.concatenate([u, btilde[..., None]], axis=2))
        ok = (theta_bu >= 1e-8) & v_full & vt_full
        skipped += len(chunk) - int(np.count_nonzero(ok))
        lhs = subspace_subspace_angle(v[ok], vt[ok])
        rhs = (math.pi / 2.0) * vector_vector_angle(btilde[ok], b[ok]) / theta_bu[ok]
        worst, violations = _tally(rhs - lhs, DET_TOL, worst, violations)
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
    if not 1 <= k <= m // 2 + 1:
        raise ValueError("need 1 <= k and 2 (k - 1) <= m to rotate into "
                         "the complement")
    _check_epsilon(epsilon)
    _check_unit_delta(delta)
    state = _as_state(rng, "conc", trials)
    sqrt_keps = math.sqrt(k * epsilon)
    if d is None:
        d = min(m, _budget_formula(1.0, k, delta, m, sqrt_keps))
    if not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m")
    d = int(d)
    spread = min(math.pi / 4, 1.5 * math.pi * math.sqrt((k - 1) * epsilon))
    fired = 0
    violations = 0
    worst = math.inf
    for chunk in _chunks(0, trials, m * k):
        c = len(chunk)
        raw_base = np.empty((c, m, k - 1))
        raw_w = np.empty((c, m, k - 1))
        angles = np.empty((c, k - 1))
        psi = np.empty(c)
        inside = np.empty((c, k - 1))
        outside = np.empty((c, m, 1))
        clean = np.empty((c, m))
        noise = np.empty((c, m))
        mask = np.zeros((c, m), dtype=bool)
        for i, gen in enumerate(_generators(state, chunk)):
            if k == 1:
                clean[i] = gen.standard_normal(m)
            else:
                raw_base[i] = gen.standard_normal((m, k - 1))
                max_angle = gen.uniform(0.0, spread)
                raw_w[i] = gen.standard_normal((m, k - 1))
                angles[i] = gen.uniform(0.0, max_angle, size=k - 1)
                psi[i] = gen.uniform(0.0, math.pi / 2)
                inside[i] = gen.standard_normal(k - 1)
                outside[i] = gen.standard_normal((m, 1))
            noise[i] = gen.standard_normal(m)
            mask[i, sample_uniform_subset(m, d, gen)] = True
        if k == 1:
            tilted = np.zeros((c, m, 0))
            theta = np.zeros(c)
            clean /= np.linalg.norm(clean, axis=1, keepdims=True)
        else:
            base = _full_frames(raw_base)
            tilted = _rotated(base, _full_frames(_reject(base, raw_w)), angles)
            theta = subspace_subspace_angle(tilted, base)
            inside /= np.linalg.norm(inside, axis=1, keepdims=True)
            outside = _full_frames(_reject(base, outside))[..., 0]
            clean = (np.cos(psi)[:, None] * (base @ inside[..., None])[..., 0]
                     + np.sin(psi)[:, None] * outside)
        column = clean + epsilon * (
            noise / np.linalg.norm(noise, axis=1, keepdims=True))
        residual = _restricted_residuals(tilted, column, mask)
        hit = residual > residual_threshold(d, m, k, epsilon, theta)
        fired += int(np.count_nonzero(hit))
        angle = vector_subspace_angle(column[hit], tilted[hit])
        margins = angle - (theta[hit] + sqrt_keps)
        worst, violations = _tally(margins, DET_TOL, worst, violations)
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
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if d is not None and not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m")
    _check_unit_delta(delta)
    state = _as_state(rng, "ks14", trials)
    ln_inv = math.log(1.0 / delta)
    ln_2k = math.log(2.0 * k / delta)
    beta = (1.0 + 2.0 * ln_inv) ** 2
    upper_applicable = 0
    lower_applicable = 0
    violations = 0
    lower_violations = 0
    worst = math.inf
    d_lo, d_hi = math.inf, 0
    for chunk in _chunks(0, trials, m * k):
        gens = _generators(state, chunk)
        raw = np.empty((len(chunk), m, k))
        y = np.empty((len(chunk), m))
        for i, gen in enumerate(gens):
            raw[i] = gen.standard_normal((m, k))
            y[i] = gen.standard_normal(m)
        basis = _full_frames(raw)
        resid_full = y - project(basis, y)
        r2_full = np.einsum("ti,ti->t", resid_full, resid_full)
        mu_sub = coherence(basis)
        mu_vec = vector_coherence(resid_full)

        d_pre = np.maximum((8.0 / 3.0) * k * mu_sub * ln_2k,
                           4.0 * mu_vec * ln_inv)
        if d is None:
            # Smallest d with alpha(d) < 1/2: solve the quadratic in
            # 1/sqrt(d) and step one past the root.
            a_coef = np.sqrt(2.0 * mu_vec * ln_inv)
            b_coef = (2.0 * mu_vec / 3.0) * ln_inv
            root = (-a_coef + np.sqrt(a_coef ** 2 + 2.0 * b_coef)) / (2.0 * b_coef)
            d_alpha = 1.0 / root ** 2
            d_t = np.minimum(
                m, np.ceil(np.maximum(d_pre, d_alpha)).astype(np.int64) + 1)
        else:
            d_t = np.full(len(chunk), int(d))
        d_lo = min(d_lo, int(d_t.min()))
        d_hi = max(d_hi, int(d_t.max()))

        alpha = (np.sqrt(2.0 * mu_vec * ln_inv / d_t)
                 + (2.0 * mu_vec / (3.0 * d_t)) * ln_inv)
        zeta = np.sqrt((8.0 * k * mu_sub / (3.0 * d_t)) * ln_2k)
        use = (alpha < 0.5) & (d_t >= d_pre)

        # Omega is drawn only for applicable trials, after the data that
        # decides applicability.
        mask = np.zeros((len(chunk), m), dtype=bool)
        for i in np.flatnonzero(use):
            mask[i, sample_uniform_subset(m, d_t[i], gens[i])] = True
        r2_restricted = _restricted_residuals(
            basis[use], y[use], mask[use]) ** 2
        d_t, alpha, zeta, mu_sub, r2_full = (
            d_t[use], alpha[use], zeta[use], mu_sub[use], r2_full[use])

        upper_applicable += int(np.count_nonzero(use))
        margins = (1.0 + alpha) * (d_t / m) * r2_full - r2_restricted
        worst, violations = _tally(margins, 1e-12, worst, violations)
        low = zeta < 1.0 / 3.0
        lower_applicable += int(np.count_nonzero(low))
        lower = ((d_t * (1.0 - alpha) - k * mu_sub * beta / (1.0 - zeta))
                 / m) * r2_full
        lower_violations += int(np.count_nonzero(
            low & (r2_restricted < lower - 1e-12)))
    return CheckReport(
        name="ks14", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={
            "m": m, "k": k, "delta": delta,
            "d": "per-trial" if d is None else int(d),
            "d_min": 0 if d_lo == math.inf else d_lo,
            "d_max": d_hi,
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
    if num_draws < 1:
        raise ValueError("num_draws must be >= 1")
    if L_bound is not None and not 0.0 < L_bound < math.inf:
        raise ValueError(f"L_bound must be positive and finite; got {L_bound}")
    state = _as_state(rng, "matcher", trials)
    gen = state.substream(0).generator()
    rows = _full_frames(gen.standard_normal((n_dim, r))[None])[0]
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
    for chunk in _chunks(1, trials + 1, num_draws * r):
        idx = np.stack([gen.integers(0, n_dim, size=num_draws)
                        for gen in _generators(state, chunk)])
        sampled = rows[idx]
        lam_r = np.linalg.eigvalsh(
            scale * (np.swapaxes(sampled, 1, 2) @ sampled))[:, 0]
        worst, violations = _tally(lam_r - cutoff, 0.0, worst, violations)
    return CheckReport(
        name="matcher", trials=trials, violations=violations,
        worst_margin=_finite(worst),
        params={
            "n_dim": n_dim, "r": r, "num_draws": num_draws,
            "L": l_eff, "mu_r": mu_r, "epsilon_chern": eps,
            "vacuous": tail >= 1.0,
        },
        denominator=trials, theoretical_bound=tail,
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
