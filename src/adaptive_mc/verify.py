"""
Executable oracles for the inequalities the recovery analysis rests on.

Each check turns one claimed inequality into a Monte-Carlo experiment.
Deterministic claims (kcoh, noisycoh, ind, ededler, blum) must show zero
violations at a 1e-9 margin tolerance; probabilistic claims (conc, ks14,
matcher) report an empirical violation frequency that must stay within
the stated bound plus three binomial standard errors, so finite-sample
noise cannot flake a verdict.

Every parameter is checked before the first generator is built, each by
the one rule of ``sampling`` for its kind: a size by ``_check_int``,
folded into the relation the check states between its sizes, and a real
number by ``_check_real`` (or ``synthetic._check_epsilon`` for the noise
level), whose Python float the check then uses.  A bool, a float size, a
str, None, a complex number or NaN raises ``ValueError`` naming the
parameter.

Every report is reproducible bit for bit from (name, params, seed).
Trial t of a check draws from its own Philox substream, ``(*stream, t)``
below the check's root stream.  ``_TrialStreams`` keys a check's trials
in one vectorized pass of ``sampling._philox_keys`` and re-keys a single
Philox per trial (counter 0, the trial's key, an empty buffer), the state
a fresh ``RngState(seed, *stream, t).generator()`` starts in, so no trial
builds a SeedSequence or a generator of its own.  A check states its
per-trial draw as ``draw(gen, t)``, a tuple of arrays from trial t's
generator; ``_TrialStreams.draws`` stacks a chunk of trials, so the chunk
size bounds memory and changes no draw.  The linear algebra runs
once per stack (QR frames, batched SVDs and eigenvalues), and a
``_Tally`` folds the margins into the report.  Coherences, projections
and angles come from ``linalg``, the rules the completion run itself
uses.
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
from .sampling import RngState, _check_int, _check_real, _philox_keys
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


@dataclass
class _Tally:
    """One check's margins, folded chunk by chunk: how many were measured,
    how many fell below ``-tol``, and the worst."""

    name: str
    trials: int
    seed: int | None
    tol: float = DET_TOL
    measured: int = 0
    violations: int = 0
    worst: float = math.inf

    def add(self, margins):
        if margins.size:
            self.worst = min(self.worst, float(margins.min()))
        self.measured += margins.size
        self.violations += int(np.count_nonzero(margins < -self.tol))

    def report(self, params, denominator=None, **extra):
        """The ``CheckReport``; the rate is over all trials by default."""
        return CheckReport(
            name=self.name, trials=self.trials, violations=self.violations,
            worst_margin=0.0 if self.worst == math.inf else self.worst,
            params=params,
            denominator=self.trials if denominator is None else denominator,
            seed=self.seed, **extra,
        )


def _start(rng, name, trials, tol=DET_TOL, first=0):
    """The check's trials, numbered from ``first``, on its root stream
    from an RngState or an integer seed, and its empty tally.  Every
    trial-driven check calls this before its first draw, so it also
    validates ``trials`` and the seed, each by ``_check_int``."""
    trials = _check_int("trials", trials)
    stream = _CHECKS[name][0]
    if isinstance(rng, RngState):
        state = rng.substream(stream)
    else:
        state = RngState(rng, stream)
    return (_TrialStreams(state, first, first + trials),
            _Tally(name, trials, state.seed, tol))


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

# Trials keyed by one pass of ``_philox_keys``.  A pass costs about
# 0.1 ms however few trials it keys, so a check keys all its trials at
# once up to this many, which bounds the memory of a pass.
_KEY_BLOCK = 4096


class _TrialStreams:
    """The trials [first, stop) of one check; trial t draws from the
    substream ``state.substream(t)`` of the check's root stream.

    One Philox serves every trial.  ``generator(t)`` sets its counter to
    0, its key to the one ``sampling._philox_keys`` derives for t and its
    buffer to empty, with no buffered 32-bit half-word: the state
    ``state.substream(t).generator()`` starts in, so trial t draws the
    same bits without a SeedSequence, a Philox and a Generator of its
    own.  Keys are derived from the first trial asked for that has none
    yet, for up to ``_KEY_BLOCK`` trials before ``stop``.
    """

    def __init__(self, state, first, stop):
        self.state, self.first, self.stop = state, first, stop
        self._gen = state.generator()
        self._bitgen = self._gen.bit_generator
        self._keyed, self._keys = first, []
        self._philox = {"bit_generator": "Philox",
                        "state": {"counter": (0, 0, 0, 0), "key": None},
                        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}

    def chunks(self, floats_per_trial):
        """Consecutive ranges of trial indices covering [first, stop)."""
        size = max(1, min(_CHUNK_TRIALS,
                          _CHUNK_BYTES // (8 * floats_per_trial)))
        for lo in range(self.first, self.stop, size):
            yield range(lo, min(lo + size, self.stop))

    def generator(self, t):
        """Trial t's generator at the start of its substream; the next
        call re-keys it."""
        if not 0 <= t - self._keyed < len(self._keys):
            self._keyed = t
            self._keys = _philox_keys(self.state, np.arange(
                t, min(t + _KEY_BLOCK, self.stop), dtype=np.uint64)).tolist()
        self._philox["state"]["key"] = self._keys[t - self._keyed]
        self._bitgen.state = self._philox
        return self._gen

    def draws(self, chunk, draw):
        """Stacks of ``draw(gen, t)`` over the trials of ``chunk``, each
        trial's tuple of arrays drawn from its own substream."""
        per_trial = [draw(self.generator(t), t) for t in chunk]
        return [np.array(column) for column in zip(*per_trial)]


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


def _tilted(base, raw_w, angles):
    """Turn each direction of ``base`` by its own angle toward the matching
    direction of a frame orthogonal to it, made from ``raw_w``.  Returns
    the tilted frames, again orthonormal, and their largest principal
    angle to ``base`` (the largest per-column angle, up to rounding)."""
    w = _full_frames(_reject(base, raw_w))
    tilted = base * np.cos(angles)[:, None, :] + w * np.sin(angles)[:, None, :]
    return tilted, subspace_subspace_angle(tilted, base)


def _restricted_residuals(basis, y, mask):
    """Sampled-row least-squares residual norms of a stack of problems:
    ``|| y_omega - B_omega pinv(B_omega) y_omega ||`` per entry, with
    omega given as a (t, m) boolean row mask.

    Zeroing the unsampled rows changes neither the singular values of
    ``B_omega`` nor the residual, so omegas of different sizes share one
    batched SVD.  Singular values at or below ``LSTSQ_RCOND`` times the
    largest are dropped: the rank rule of ``RestrictedSolver``.  An empty
    stack, or a stack of 0-dimensional bases, needs no branch: its SVD
    is empty and the projection is zero.
    """
    y = y * mask
    u, s, _ = np.linalg.svd(basis * mask[:, :, None], full_matrices=False)
    keep = s > LSTSQ_RCOND * s.max(axis=1, initial=0.0, keepdims=True)
    u *= keep[:, None, :]
    return np.linalg.norm(y - project(u, y), axis=1)


def _head_masks(perm, d_t):
    """Row masks of a (t, m) stack of permutations: row i marks the first
    ``d_t[i]`` entries of ``perm[i]`` (``d_t`` may be one size for all),
    the rows ``sample_uniform_subset`` draws from the same generator."""
    rank = np.empty_like(perm)
    np.put_along_axis(rank, perm, np.arange(perm.shape[1]), axis=1)
    return rank < np.reshape(d_t, (-1, 1))


# ---------------------------------------------------------------------------
# Deterministic inequalities
# ---------------------------------------------------------------------------

def check_kcoh(m, r, k, trials, rng):
    """Nested-subspace coherence: k mu(S) <= r mu(U) for any k-dim
    subspace S of an r-dim U.  Every fourth trial plants a coordinate
    axis into U to probe the maximally coherent corner.  ``m``, ``r`` and
    ``k`` are integers by ``_check_int``."""
    if not 1 <= k <= r <= _check_int("m", m):
        raise ValueError("need 1 <= k <= r <= m")
    _check_int("r", r)
    _check_int("k", k)
    streams, tally = _start(rng, "kcoh", trials)

    def draw(gen, t):
        raw = gen.standard_normal((m, r))
        if t % 4 == 3:
            raw[:, 0] = 0.0
            raw[int(gen.integers(m)), 0] = 1.0
        return raw, gen.standard_normal((r, k))

    for chunk in streams.chunks(m * r):
        raw, coef = streams.draws(chunk, draw)
        u = _full_frames(raw)
        sub = _full_frames(u @ coef)
        tally.add(r * coherence(u) - k * coherence(sub))
    return tally.report({"m": m, "r": r, "k": k, "spiked_every": 4})


def check_noisycoh(m, k, theta_max, trials, rng):
    """Coherence under perturbation:
    mu(S~) <= 2 mu(S) + 2 (m/k) theta(S~, S)^2, using the realized angle
    of each perturbed copy.  ``m`` and ``k`` are integers by
    ``_check_int``, and ``theta_max`` a real number in (0, pi/2) by
    ``_check_real``."""
    if not 1 <= k <= _check_int("m", m) // 2:
        raise ValueError("need 1 <= k <= m/2 to rotate into the complement")
    _check_int("k", k)
    theta_max = _check_real("theta_max", theta_max, 0.0, math.pi / 2, "()")
    streams, tally = _start(rng, "noisycoh", trials)

    def draw(gen, t):
        return (gen.standard_normal((m, k)), gen.standard_normal((m, k)),
                gen.uniform(0.0, theta_max, size=k))

    for chunk in streams.chunks(m * k):
        raw_u, raw_w, angles = streams.draws(chunk, draw)
        u = _full_frames(raw_u)
        tilted, theta = _tilted(u, raw_w, angles)
        tally.add(2.0 * coherence(u) + 2.0 * (m / k) * theta ** 2
                  - coherence(tilted))
    return tally.report({"m": m, "k": k, "theta_max": theta_max})


def check_ind(k_max, epsilon, trials, rng=0):
    """Recursion cap: any sequence a_0 = 0,
    a_k <= a_{k-1} + (pi/2) sqrt(eps/k) stays below (3 pi/2) sqrt(k eps).

    Sequence 0 is the extremal one (every step maximal); the rest scale
    each step by an independent uniform factor in [0, 1].  A sequence
    counts as one violation if any of its k_max prefixes breaks the cap
    by more than 1e-12.  ``k_max`` is an integer by ``_check_int``, and
    ``epsilon`` a positive, finite real number by ``_check_real``.
    """
    _check_int("k_max", k_max)
    epsilon = _check_real("epsilon", epsilon, 0.0, ends="()")
    streams, tally = _start(rng, "ind", trials, tol=1e-12)
    ks = np.arange(1, k_max + 1, dtype=float)
    max_steps = (math.pi / 2.0) * np.sqrt(epsilon / ks)
    caps = 1.5 * math.pi * np.sqrt(ks * epsilon)

    for chunk in streams.chunks(k_max):
        c = np.empty((len(chunk), k_max))
        for row, t in zip(c, chunk):
            if t == 0:
                row.fill(1.0)
            else:
                streams.generator(t).random(out=row)
        c *= max_steps
        np.cumsum(c, axis=1, out=c)
        np.subtract(caps, c, out=c)
        tally.add(c.min(axis=1))
    return tally.report(
        {"k_max": k_max, "epsilon": epsilon, "extremal_first": True})


def check_ededler(m_values, r_values, delta_values, theta_values=None):
    """Budget-dominance arithmetic.

    For the unclamped budget d at (mu, r, delta, theta) the claim is

        d / 4 > 18 r mu ln(1/delta)^2 + 18 theta^2 ln(1/delta)^2,

    which after cancelling the identical mu terms reduces to
    2 m ln(r/delta) > 18 ln(1/delta)^2, guaranteed by the side condition
    9 ln(1/delta) < m.  The mu terms cancel exactly, so mu = 1 is used;
    theta = 0 gives equality, which the tolerance admits.  Grid points
    breaking the side condition are skipped and counted.  Each of
    ``m_values`` and ``r_values`` is a positive integer by ``_check_int``
    and each of ``delta_values`` a real number in (0, 1) by
    ``_check_real``.
    """
    m_values = [_check_int("m", m) for m in m_values]
    r_values = [_check_int("r", r) for r in r_values]
    delta_values = [_check_real("delta", delta, 0.0, 1.0, "()")
                    for delta in delta_values]
    if theta_values is None:
        theta_values = np.linspace(0.0, math.pi / 2, 9)
    skipped = 0
    margins = []
    for m in m_values:
        for r in r_values:
            for delta in delta_values:
                if 9.0 * math.log(1.0 / delta) >= m:
                    skipped += 1
                    continue
                ln_inv = math.log(1.0 / delta)
                for theta in theta_values:
                    d = _budget_formula(1.0, r, delta, m, theta)
                    margins.append(d / 4.0 - (
                        18.0 * r * ln_inv ** 2 + 18.0 * theta ** 2 * ln_inv ** 2
                    ))
    tally = _Tally("ededler", len(margins), None)
    tally.add(np.array(margins))
    return tally.report({
        "m_values": m_values, "r_values": r_values,
        "delta_values": delta_values,
        "theta_points": len(theta_values), "skipped_cells": skipped,
    })


def check_blum(m, k, trials, rng):
    """Single-vector subspace perturbation: with U = span(a_1..a_{k-1}),
    V = span(U, b) and V~ = span(U, b~),

        theta(V, V~) <= (pi/2) * theta(b~, b) / theta(b~, U).

    Trials rotate through three perturbation styles: multiplicative
    Gaussian noise on b across eight orders of magnitude, an unrelated
    random direction, and a perturbation confined to the complement of
    U.  Trials where b~ (or b) falls into U are skipped and counted.
    ``m`` and ``k`` are integers by ``_check_int``."""
    if not 2 <= k <= _check_int("m", m):
        raise ValueError("need 2 <= k <= m")
    _check_int("k", k)
    streams, tally = _start(rng, "blum", trials)

    def draw(gen, t):
        raw_u = gen.standard_normal((m, k - 1))
        b = gen.standard_normal(m)
        scale = 10.0 ** gen.uniform(-4.0, 0.5) if t % 3 == 0 else 0.0
        return raw_u, b, scale, gen.standard_normal(m)

    for chunk in streams.chunks(m * k):
        raw_u, b, scale, noise = streams.draws(chunk, draw)
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
        lhs = subspace_subspace_angle(v[ok], vt[ok])
        rhs = (math.pi / 2.0) * vector_vector_angle(btilde[ok], b[ok]) / theta_bu[ok]
        tally.add(rhs - lhs)
    return tally.report({"m": m, "k": k, "skipped": trials - tally.measured},
                        denominator=tally.measured)


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
    rank k, theta = sqrt(k eps)) clamped to m.  Any other ``d`` must lie
    in [1, m] and be an integer by ``_check_int``; a float is refused,
    never truncated.  Each trial samples the first d rows of its own
    ``permutation(m)``.  ``m`` and ``k`` are integers by ``_check_int``,
    ``epsilon`` lies in the model's [0, 1/4) and ``delta`` is a real
    number in (0, 1) by ``_check_real``.
    """
    if not 1 <= k <= _check_int("m", m) // 2 + 1:
        raise ValueError("need 1 <= k and 2 (k - 1) <= m to rotate into "
                         "the complement")
    _check_int("k", k)
    epsilon = _check_epsilon(epsilon)
    delta = _check_real("delta", delta, 0.0, 1.0, "()")
    sqrt_keps = math.sqrt(k * epsilon)
    if d is None:
        d = min(m, _budget_formula(1.0, k, delta, m, sqrt_keps))
    if not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m")
    d = _check_int("d", d)
    streams, tally = _start(rng, "conc", trials)
    spread = min(math.pi / 4, 1.5 * math.pi * math.sqrt((k - 1) * epsilon))

    def draw(gen, t):
        # k = 1 tests against the empty subspace: only a clean column.
        if k == 1:
            frame = (gen.standard_normal(m),)
        else:
            raw_base = gen.standard_normal((m, k - 1))
            max_angle = gen.uniform(0.0, spread)
            frame = (raw_base, gen.standard_normal((m, k - 1)),
                     gen.uniform(0.0, max_angle, size=k - 1),
                     gen.uniform(0.0, math.pi / 2), gen.standard_normal(k - 1),
                     gen.standard_normal((m, 1)))
        return *frame, gen.standard_normal(m), gen.permutation(m)

    for chunk in streams.chunks(m * k):
        *frame, noise, perm = streams.draws(chunk, draw)
        if k == 1:
            clean, = frame
            tilted = np.zeros((len(chunk), m, 0))
            theta = np.zeros(len(chunk))
            clean /= np.linalg.norm(clean, axis=1, keepdims=True)
        else:
            raw_base, raw_w, angles, psi, inside, outside = frame
            base = _full_frames(raw_base)
            tilted, theta = _tilted(base, raw_w, angles)
            inside /= np.linalg.norm(inside, axis=1, keepdims=True)
            outside = _full_frames(_reject(base, outside))[..., 0]
            clean = (np.cos(psi)[:, None] * (base @ inside[..., None])[..., 0]
                     + np.sin(psi)[:, None] * outside)
        column = clean + epsilon * (
            noise / np.linalg.norm(noise, axis=1, keepdims=True))
        residual = _restricted_residuals(tilted, column, _head_masks(perm, d))
        hit = residual > residual_threshold(d, m, k, epsilon, theta)
        angle = vector_subspace_angle(column[hit], tilted[hit])
        tally.add(angle - (theta[hit] + sqrt_keps))
    return tally.report(
        {"m": m, "k": k, "d": d, "epsilon": epsilon, "delta": delta,
         "fired": tally.measured},
        theoretical_bound=2.0 * delta,
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
    satisfying the stated preconditions and alpha < 1/2; any other ``d``
    must lie in [1, m] and be an integer by ``_check_int``, as ``m`` and
    ``k`` must.  ``delta`` is a real number in (0, 1) by ``_check_real``.
    """
    if not 1 <= k <= _check_int("m", m):
        raise ValueError("need 1 <= k <= m")
    _check_int("k", k)
    if d is not None:
        if not 1 <= d <= m:
            raise ValueError("need 1 <= d <= m")
        d = _check_int("d", d)
    delta = _check_real("delta", delta, 0.0, 1.0, "()")
    streams, tally = _start(rng, "ks14", trials, tol=1e-12)
    ln_inv = math.log(1.0 / delta)
    ln_2k = math.log(2.0 * k / delta)
    beta = (1.0 + 2.0 * ln_inv) ** 2
    lower_applicable = 0
    lower_violations = 0
    d_lo, d_hi = math.inf, 0

    def draw(gen, t):
        return (gen.standard_normal((m, k)), gen.standard_normal(m),
                gen.permutation(m))

    for chunk in streams.chunks(m * k):
        raw, y, perm = streams.draws(chunk, draw)
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
            d_t = np.full(len(chunk), d)
        d_lo = min(d_lo, int(d_t.min()))
        d_hi = max(d_hi, int(d_t.max()))

        alpha = (np.sqrt(2.0 * mu_vec * ln_inv / d_t)
                 + (2.0 * mu_vec / (3.0 * d_t)) * ln_inv)
        zeta = np.sqrt((8.0 * k * mu_sub / (3.0 * d_t)) * ln_2k)
        use = (alpha < 0.5) & (d_t >= d_pre)

        # Each trial's Omega heads its permutation; d_t is known only now.
        r2_restricted = _restricted_residuals(
            basis[use], y[use], _head_masks(perm[use], d_t[use])) ** 2
        d_t, alpha, zeta, mu_sub, r2_full = (
            d_t[use], alpha[use], zeta[use], mu_sub[use], r2_full[use])

        tally.add((1.0 + alpha) * (d_t / m) * r2_full - r2_restricted)
        low = zeta < 1.0 / 3.0
        lower_applicable += int(np.count_nonzero(low))
        lower = ((d_t * (1.0 - alpha) - k * mu_sub * beta / (1.0 - zeta))
                 / m) * r2_full
        lower_violations += int(np.count_nonzero(
            low & (r2_restricted < lower - 1e-12)))
    return tally.report(
        {
            "m": m, "k": k, "delta": delta,
            "d": "per-trial" if d is None else d,
            "d_min": 0 if d_lo == math.inf else d_lo,
            "d_max": d_hi,
            "upper_applicable": tally.measured,
            "lower_applicable": lower_applicable,
            "lower_violations": lower_violations,
        },
        denominator=tally.measured, theoretical_bound=2.0 * delta,
        not_applicable=tally.measured == 0,
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
    vacuous and the verdict is N/A.  ``n_dim``, ``r`` and ``num_draws``
    are integers by ``_check_int``; ``epsilon_chern`` is a real number in
    [0, 1) and ``L_bound``, unless None, a positive, finite one by
    ``_check_real``.
    """
    eps = _check_real("epsilon_chern", epsilon_chern, 0.0, 1.0, "[)")
    if not 1 <= r <= _check_int("n_dim", n_dim):
        raise ValueError("need 1 <= r <= n_dim")
    _check_int("r", r)
    _check_int("num_draws", num_draws)
    if L_bound is not None:
        L_bound = _check_real("L_bound", L_bound, 0.0, ends="()")
    streams, tally = _start(rng, "matcher", trials, tol=0.0, first=1)
    gen = streams.state.substream(0).generator()
    rows = _full_frames(gen.standard_normal((n_dim, r))[None])[0]
    row_sq = np.einsum("ij,ij->i", rows, rows)
    max_row = float(np.max(row_sq))
    scale = 1.0 if L_bound is None else L_bound / max_row
    l_eff = max_row * scale
    mu_r = num_draws * scale / n_dim
    ratio = mu_r / l_eff
    # At eps = 0 the exponent is 0.0 and the tail is exactly float(r).
    tail = r * math.exp(ratio * (-eps - (1.0 - eps) * math.log1p(-eps)))
    cutoff = (1.0 - eps) * mu_r

    for chunk in streams.chunks(num_draws * r):
        idx, = streams.draws(
            chunk, lambda gen, t: (gen.integers(0, n_dim, size=num_draws),))
        sampled = rows[idx]
        lam_r = np.linalg.eigvalsh(
            scale * (np.swapaxes(sampled, 1, 2) @ sampled))[:, 0]
        tally.add(lam_r - cutoff)
    return tally.report(
        {
            "n_dim": n_dim, "r": r, "num_draws": num_draws,
            "L": l_eff, "mu_r": mu_r, "epsilon_chern": eps,
            "vacuous": tail >= 1.0,
        },
        theoretical_bound=tail,
    )


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
    merged into the default parameters.  ``trials`` and ``seed`` reach
    the check unconverted, where ``_start`` holds them to
    ``sampling._check_int``: ``trials`` must be a positive and ``seed`` a
    non-negative integer, and a bool or a float raises ``ValueError``.
    The grid-driven ededler check ignores trials and seed.
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    _, default_trials, defaults = _CHECKS[name]
    params = dict(defaults, **overrides)
    func = globals()[f"check_{name}"]
    if default_trials is None:
        return func(**params)
    return func(trials=default_trials if trials is None else trials,
                rng=seed, **params)
