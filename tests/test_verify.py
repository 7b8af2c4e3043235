import math

import numpy as np
import pytest

from adaptive_mc.linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    coherence,
    orthonormalize,
    subspace_subspace_angle,
    vector_coherence,
    vector_subspace_angle,
    vector_vector_angle,
)
from adaptive_mc.lrebn import LrebnConfig, updated_budget
from adaptive_mc import verify
from adaptive_mc.sampling import RngState
from adaptive_mc.verify import (
    CHECK_NAMES,
    CheckReport,
    _frames,
    _full_frames,
    _restricted_residuals,
    check_blum,
    check_conc,
    check_ededler,
    check_ind,
    check_kcoh,
    check_ks14,
    check_matcher,
    check_noisycoh,
    run_check,
)


def e(i, m):
    v = np.zeros(m)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_verdicts():
    det_pass = CheckReport("x", 10, 0, 0.1, denominator=10)
    det_fail = CheckReport("x", 10, 1, -0.1, denominator=10)
    assert det_pass.verdict == "PASS"
    assert det_fail.verdict == "FAIL"
    prob_pass = CheckReport("x", 100, 5, 0.0, denominator=100,
                            theoretical_bound=0.1)
    prob_fail = CheckReport("x", 100, 50, 0.0, denominator=100,
                            theoretical_bound=0.1)
    assert prob_pass.verdict == "PASS"
    assert prob_fail.verdict == "FAIL"
    na = CheckReport("x", 10, 0, 0.0, denominator=0, not_applicable=True)
    assert na.verdict == "N/A"
    vacuous = CheckReport("x", 10, 3, 0.0, denominator=10,
                          theoretical_bound=1.5)
    assert vacuous.verdict == "N/A"


def test_run_check_dispatch():
    rep = run_check("ind", trials=10, seed=3)
    assert rep.name == "ind"
    assert rep.violations == 0
    with pytest.raises(ValueError, match="unknown check"):
        run_check("nope")


# Out-of-range parameters fail with a ValueError naming them before any
# generator is built.  Most of these cases used to crash inside a check,
# run to a silent N/A, or pass on NaN arithmetic.
@pytest.mark.parametrize("name, overrides, message", [
    ("conc", dict(delta=0.0), "delta"),
    ("conc", dict(delta=1.0), "delta"),
    ("conc", dict(delta=1.5), "delta"),
    ("conc", dict(delta=math.nan), "delta"),
    ("conc", dict(m=3, k=3, d=2), r"2 \(k - 1\) <= m"),
    ("conc", dict(d=math.nan), "1 <= d"),
    ("ks14", dict(m=3, k=4), "k <= m"),
    ("ks14", dict(k=0), "1 <= k"),
    ("ks14", dict(d=0), "1 <= d"),
    ("ind", dict(epsilon=math.nan), "epsilon"),
    ("matcher", dict(num_draws=0), "num_draws"),
    ("matcher", dict(L_bound=0.0), "L_bound"),
    ("matcher", dict(L_bound=-1.0), "L_bound"),
    ("noisycoh", dict(k=0), "1 <= k"),
    ("ededler", dict(delta_values=(0.05, 1.0)), "delta"),
])
def test_out_of_range_parameters_rejected_before_any_draw(
        monkeypatch, name, overrides, message):
    def no_draws(self):
        raise AssertionError("a check drew before validating")
    monkeypatch.setattr(RngState, "generator", no_draws)
    with pytest.raises(ValueError, match=message):
        run_check(name, trials=20, seed=0, **overrides)


# Every trial-driven check takes its stream through ``_start``, which
# refuses a trial count below one, a vacuous PASS or N/A otherwise, before
# the first generator is built.
@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("name", [n for n in CHECK_NAMES if n != "ededler"])
def test_non_positive_trials_rejected_before_any_draw(
        monkeypatch, name, trials):
    def no_draws(self):
        raise AssertionError("a check drew before validating")
    monkeypatch.setattr(RngState, "generator", no_draws)
    message = f"trials must be a positive integer; got {trials}"
    with pytest.raises(ValueError, match=message):
        run_check(name, trials=trials, seed=0)
    check = getattr(verify, f"check_{name}")
    with pytest.raises(ValueError, match=message):
        check(trials=trials, rng=0, **verify._CHECKS[name][2])


def test_reports_are_reproducible():
    a = run_check("conc", trials=200, seed=5)
    b = run_check("conc", trials=200, seed=5)
    assert (a.violations, a.worst_margin, a.params) == (
        b.violations, b.worst_margin, b.params
    )


def test_all_names_runnable_small():
    for name in CHECK_NAMES:
        rep = run_check(name, trials=20, seed=1)
        assert rep.verdict in ("PASS", "N/A"), (name, rep)


# Integer outcomes of every check at trials=500, seed=5, recorded from the
# per-trial implementation the batched one replaced.
PINNED_500_SEED_5 = {
    "kcoh": dict(violations=0, denominator=500),
    "noisycoh": dict(violations=0, denominator=500),
    "ind": dict(violations=0, denominator=500),
    "conc": dict(violations=0, denominator=500, fired=328),
    "ks14": dict(violations=0, denominator=489, upper_applicable=489,
                 lower_applicable=0, lower_violations=0, d_min=224,
                 d_max=500),
    "matcher": dict(violations=0, denominator=500),
    "ededler": dict(violations=0, denominator=504, skipped_cells=8),
    "blum": dict(violations=0, denominator=500, skipped=0),
}


def _outcome(rep):
    got = {"violations": rep.violations, "denominator": rep.denominator}
    got.update({key: rep.params[key] for key in PINNED_500_SEED_5[rep.name]
                if key in rep.params})
    return got


def test_integer_outcomes_pinned():
    for name in CHECK_NAMES:
        rep = run_check(name, trials=500, seed=5)
        assert _outcome(rep) == PINNED_500_SEED_5[name], name
        assert rep.verdict == "PASS", name


@pytest.mark.parametrize("chunk", [1, 7])
def test_reports_do_not_depend_on_chunk_size(monkeypatch, chunk):
    reference = {name: run_check(name, trials=40, seed=3)
                 for name in CHECK_NAMES}
    monkeypatch.setattr(verify, "_CHUNK_TRIALS", chunk)
    for name in CHECK_NAMES:
        rep = run_check(name, trials=40, seed=3)
        ref = reference[name]
        assert (rep.violations, rep.denominator) == (
            ref.violations, ref.denominator), name
        assert {k: v for k, v in rep.params.items() if k not in ("L", "mu_r")} \
            == {k: v for k, v in ref.params.items() if k not in ("L", "mu_r")}
        assert rep.worst_margin == pytest.approx(ref.worst_margin, abs=1e-12)


# ---------------------------------------------------------------------------
# batched helpers against the per-item linalg code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, k", [(20, 5), (30, 3), (7, 7), (500, 4)])
def test_qr_frames_match_orthonormalize(m, k):
    raw = np.random.default_rng(m + k).standard_normal((6, m, k))
    raw[3, :, 0] = e(2, m)
    q, full = _frames(raw)
    assert full.all()
    for frame, one in zip(q, raw):
        expected = orthonormalize(one).matrix
        np.testing.assert_allclose(frame, expected, rtol=0, atol=1e-12)


def test_frames_flag_dependent_columns_like_orthonormalize():
    gen = np.random.default_rng(21)
    raw = gen.standard_normal((5, 12, 4))
    raw[1, :, 2] = raw[1, :, 0] - 2.0 * raw[1, :, 1]
    raw[2, :, 3] = raw[2, :, 1]
    raw[3, :, 0] = 0.0
    _, full = _frames(raw)
    expected = [orthonormalize(one).dim == 4 for one in raw]
    assert full.tolist() == expected == [True, False, False, False, True]


def test_full_frames_raise_on_a_dependent_column_instead_of_redrawing():
    raw = np.random.default_rng(23).standard_normal((3, 12, 4))
    np.testing.assert_array_equal(_full_frames(raw), _frames(raw)[0])
    raw[1, :, 2] = raw[1, :, 0] - 2.0 * raw[1, :, 1]
    with pytest.raises(RuntimeError, match="rank-deficient random frame"):
        _full_frames(raw)


def test_restricted_residuals_match_solver():
    gen = np.random.default_rng(22)
    m, k = 40, 3
    bases = [orthonormalize(gen.standard_normal((m, k))) for _ in range(4)]
    # A basis holding the axis e_5 with row 5 left out: B_omega has a
    # zero column and the fit is rank-deficient.
    bases.append(orthonormalize(np.column_stack(
        [e(5, m), gen.standard_normal(m), gen.standard_normal(m)])))
    omegas = [np.sort(gen.choice(m, size=d, replace=False))
              for d in (3, 10, 25, 40)]
    omegas.append(np.setdiff1d(np.arange(m), [5]))
    ys = gen.standard_normal((5, m))
    mask = np.zeros((5, m), dtype=bool)
    for i, omega in enumerate(omegas):
        mask[i, omega] = True
    got = _restricted_residuals(np.stack([b.matrix for b in bases]), ys, mask)
    solvers = [RestrictedSolver(b, om) for b, om in zip(bases, omegas)]
    assert solvers[-1].degenerate
    expected = [s.fit(y[s.omega])[1] for s, y in zip(solvers, ys)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_batched_angles_and_coherence_match_linalg():
    # The checks call the linalg geometry on stacks of trials; a stacked
    # call must equal the list of single calls on wrapped bases.
    gen = np.random.default_rng(23)
    m, k = 25, 3
    u = np.stack([orthonormalize(gen.standard_normal((m, k))).matrix
                  for _ in range(4)])
    # Small and large perturbations reach both sides of the arccos /
    # arcsin switch.
    v = np.stack([orthonormalize(u[i] + s * gen.standard_normal((m, k))).matrix
                  for i, s in enumerate((1e-9, 1e-3, 0.5, 10.0))])
    x = gen.standard_normal((4, m))
    x[0] = u[0, :, 0] + 1e-9 * x[0]
    wrap = [OrthonormalBasis(a) for a in u], [OrthonormalBasis(a) for a in v]
    assert subspace_subspace_angle(u, v).tolist() == [
        subspace_subspace_angle(a, b) for a, b in zip(*wrap)]
    assert coherence(u).tolist() == [coherence(a) for a in wrap[0]]
    np.testing.assert_allclose(
        vector_subspace_angle(x, u),
        [vector_subspace_angle(a, b) for a, b in zip(x, wrap[0])],
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        vector_vector_angle(x, u[:, :, 0]),
        [vector_vector_angle(a, b) for a, b in zip(x, u[:, :, 0])],
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        vector_coherence(x), [vector_coherence(a) for a in x],
        rtol=1e-12, atol=0)

    # A zero vector anywhere in a stack raises.
    x[2] = 0.0
    for call in (lambda: vector_subspace_angle(x, u),
                 lambda: vector_vector_angle(u[:, :, 0], x),
                 lambda: vector_coherence(x)):
        with pytest.raises(ValueError, match="zero vector"):
            call()

    # Empty frames are orthogonal to everything: conc's k = 1 trials.
    x[2] = 1.0
    assert vector_subspace_angle(x, np.zeros((4, m, 0))).tolist() == [
        math.pi / 2] * 4


# ---------------------------------------------------------------------------
# nested-subspace coherence
# ---------------------------------------------------------------------------

def test_kcoh_equality_when_sub_is_whole_space():
    # A k = r subspace of U is a rotation of U itself: equal coherence.
    rep = check_kcoh(m=15, r=4, k=4, trials=50, rng=2)
    assert rep.violations == 0
    assert abs(rep.worst_margin) < 1e-9


def test_kcoh_clean_at_example_scale():
    rep = check_kcoh(m=20, r=5, k=2, trials=2000, rng=7)
    assert rep.violations == 0
    assert rep.worst_margin > -1e-9


def test_kcoh_parameter_validation():
    with pytest.raises(ValueError):
        check_kcoh(m=10, r=4, k=5, trials=1, rng=0)


# ---------------------------------------------------------------------------
# coherence under perturbation
# ---------------------------------------------------------------------------

def test_noisycoh_identity_margin_is_mu():
    # With no perturbation the inequality reads mu <= 2 mu.
    gen = np.random.default_rng(0)
    u = orthonormalize(gen.standard_normal((12, 3)))
    mu = coherence(u)
    theta = subspace_subspace_angle(u, u)
    assert 2 * mu + 2 * (12 / 3) * theta ** 2 - mu == pytest.approx(mu, abs=1e-9)


def test_noisycoh_rank_one_hand_case():
    # e1 rotated by 0.2 toward e2 in R^10: mu = 10 cos^2(0.2) vs bound
    # 2 * 10 + 2 * 10 * 0.2^2.
    m, angle = 10, 0.2
    tilted = orthonormalize(
        [math.cos(angle) * e(0, m) + math.sin(angle) * e(1, m)]
    )
    base = orthonormalize([e(0, m)])
    theta = subspace_subspace_angle(tilted, base)
    mu_tilted = coherence(tilted)
    assert mu_tilted == pytest.approx(m * math.cos(angle) ** 2, abs=1e-9)
    assert mu_tilted <= 2 * coherence(base) + 2 * m * theta ** 2


def test_noisycoh_clean_at_example_scale():
    rep = check_noisycoh(m=30, k=3, theta_max=0.3, trials=2000, rng=3)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# recursion cap
# ---------------------------------------------------------------------------

def test_ind_base_case():
    # a_1 = (pi/2) sqrt(eps) is below the cap 3 (pi/2) sqrt(eps).
    rep = check_ind(k_max=1, epsilon=0.04, trials=1)
    assert rep.violations == 0
    assert rep.worst_margin == pytest.approx(math.pi * math.sqrt(0.04),
                                             abs=1e-12)


def test_ind_extremal_long_run():
    rep = check_ind(k_max=10_000, epsilon=0.01, trials=1)
    assert rep.violations == 0


def test_ind_zero_steps_trivial():
    # All-zero step factors keep the sequence at 0, far below the cap.
    rep = check_ind(k_max=100, epsilon=0.01, trials=5, rng=0)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# budget-dominance arithmetic
# ---------------------------------------------------------------------------

def test_ededler_single_cell_positive_margin():
    rep = check_ededler([100], [4], [0.05], theta_values=[0.3])
    assert rep.trials == 1
    assert rep.violations == 0
    assert rep.worst_margin > 0


def test_ededler_zero_angle_is_equality_up_to_ceil():
    rep = check_ededler([100], [4], [0.05], theta_values=[0.0])
    assert rep.violations == 0
    assert 0 <= rep.worst_margin < 0.5


def test_ededler_boundary_delta():
    # 9 ln(1/delta) = m - 1 sits just inside the side condition.
    m = 100
    delta = math.exp(-(m - 1) / 9.0)
    rep = check_ededler([m], [2], [delta])
    assert rep.params["skipped_cells"] == 0
    assert rep.violations == 0


def test_ededler_side_condition_skips():
    rep = check_ededler([20], [2], [0.001])
    assert rep.trials == 0
    assert rep.params["skipped_cells"] == 1


# ---------------------------------------------------------------------------
# single-vector subspace perturbation
# ---------------------------------------------------------------------------

def test_blum_identical_vectors_zero_lhs():
    gen = np.random.default_rng(1)
    u = orthonormalize(gen.standard_normal((8, 2)))
    b = gen.standard_normal(8)
    v = orthonormalize(list(u.matrix.T) + [b])
    assert subspace_subspace_angle(v, v) <= 1e-12


def test_blum_hand_construction():
    # U = {e1}, b = e2, b~ = cos(0.1) e2 + sin(0.1) e3: the bound equals
    # 0.1 and the realized angle meets it.
    m = 5
    b = e(1, m)
    btilde = math.cos(0.1) * e(1, m) + math.sin(0.1) * e(2, m)
    u = orthonormalize([e(0, m)])
    v = orthonormalize([e(0, m), b])
    vt = orthonormalize([e(0, m), btilde])
    lhs = subspace_subspace_angle(v, vt)
    rhs = (math.pi / 2) * vector_vector_angle(btilde, b) / (
        vector_subspace_angle(btilde, u)
    )
    assert rhs == pytest.approx(0.1, abs=1e-12)
    assert lhs <= rhs + 1e-9
    assert lhs == pytest.approx(0.1, abs=1e-9)


def test_blum_clean_at_example_scale():
    rep = check_blum(m=20, k=3, trials=2000, rng=4)
    assert rep.violations == 0
    assert rep.params["skipped"] < 100


def test_blum_requires_k_at_least_two():
    with pytest.raises(ValueError):
        check_blum(m=10, k=1, trials=1, rng=0)


# ---------------------------------------------------------------------------
# fired-test angle separation
# ---------------------------------------------------------------------------

def test_conc_in_span_column_never_fires():
    # A column exactly in the span has zero restricted residual, below
    # any non-negative threshold.
    gen = np.random.default_rng(6)
    basis = orthonormalize(gen.standard_normal((30, 3)))
    column = basis.matrix @ gen.standard_normal(3)
    omega = np.arange(0, 30, 2)
    assert RestrictedSolver(basis, omega).fit(column[omega])[1] < 1e-12


def test_conc_orthogonal_column_satisfies_conclusion():
    # A firing column orthogonal to the subspace has angle pi/2, above
    # theta + sqrt(k eps) for any small epsilon.
    gen = np.random.default_rng(8)
    basis = orthonormalize(gen.standard_normal((30, 3)))
    w = gen.standard_normal(30)
    w -= basis.matrix @ (basis.matrix.T @ w)
    angle = vector_subspace_angle(w, basis)
    assert angle == pytest.approx(math.pi / 2, abs=1e-9)
    assert angle >= 0.1 + math.sqrt(4 * 0.01)


def test_conc_fires_and_stays_clean():
    rep = check_conc(m=200, k=3, d=None, epsilon=0.01, delta=0.05,
                     trials=1000, rng=9)
    assert rep.params["fired"] > 100
    assert rep.violations == 0
    assert rep.verdict == "PASS"


def test_conc_subsampled_regime():
    rep = check_conc(m=300, k=3, d=210, epsilon=0.01, delta=0.05,
                     trials=1500, rng=10)
    assert rep.params["fired"] > 100
    assert rep.violation_rate <= 2 * 0.05 + rep.slack


def test_conc_against_the_empty_subspace():
    # k = 1 tests a unit column against no subspace: every restricted
    # residual beats the threshold and every angle is exactly pi/2.
    rep = check_conc(m=200, k=1, d=None, epsilon=0.01, delta=0.05,
                     trials=500, rng=4)
    assert rep.params["fired"] == 500
    assert rep.violations == 0
    assert rep.verdict == "PASS"
    assert rep.worst_margin == pytest.approx(
        math.pi / 2 - math.sqrt(0.01), abs=1e-12)


def test_conc_default_budget_is_the_run_budget():
    # d=None must give the budget run_lrebn would use at mu = 1, rank k
    # and theta = sqrt(k eps); the grid includes sub-sampled points.
    subsampled = 0
    for m, k, epsilon, delta in [(200, 3, 0.01, 0.05), (5000, 1, 0.0, 0.09),
                                 (5000, 2, 0.001, 0.05), (800, 1, 0.0, 0.09),
                                 (3000, 4, 0.02, 0.01)]:
        report = check_conc(m, k, None, epsilon, delta, trials=1, rng=0)
        cfg = LrebnConfig(epsilon, delta, r=k, mu_upper=1.0)
        expected = updated_budget(cfg, m, math.sqrt(k * epsilon))
        assert report.params["d"] == expected
        subsampled += expected < m
    assert subsampled >= 1


def test_conc_zero_noise_allowed():
    rep = check_conc(m=60, k=2, d=None, epsilon=0.0, delta=0.05,
                     trials=200, rng=11)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# restricted-residual concentration
# ---------------------------------------------------------------------------

def test_ks14_full_sampling_upper_bound_holds():
    # d = m makes the restricted residual equal the full one; the upper
    # bound carries a (1 + alpha) >= 1 factor.  m is large enough that
    # the budget precondition holds and trials actually apply.
    rep = check_ks14(m=500, k=4, d=500, delta=0.05, trials=200, rng=12)
    assert rep.params["upper_applicable"] > 150
    assert rep.violations == 0


def test_ks14_in_span_vector_all_zero():
    gen = np.random.default_rng(13)
    basis = orthonormalize(gen.standard_normal((40, 4)))
    y = basis.matrix @ gen.standard_normal(4)
    omega = np.arange(0, 40, 3)
    assert RestrictedSolver(basis, omega).fit(y[omega])[1] < 1e-12
    assert np.linalg.norm(y - basis.matrix @ (basis.matrix.T @ y)) < 1e-12


def test_ks14_infeasible_parameters_not_applicable():
    # A tiny budget forces alpha >= 1/2 on every trial.
    rep = check_ks14(m=500, k=4, d=5, delta=0.05, trials=50, rng=14)
    assert rep.not_applicable
    assert rep.verdict == "N/A"


def test_ks14_per_trial_budget_clean():
    rep = check_ks14(m=500, k=4, d=None, delta=0.05, trials=500, rng=15)
    assert rep.params["upper_applicable"] > 400
    assert rep.violation_rate <= 2 * 0.05 + rep.slack
    assert rep.params["d_min"] >= 1
    assert rep.params["d_max"] <= 500


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, math.nan])
def test_ks14_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match="delta"):
        check_ks14(m=50, k=2, d=None, delta=delta, trials=3, rng=0)


def test_ks14_lower_bound_reachable_at_scale():
    # The lower bound needs zeta < 1/3, which requires d about nine times
    # the precondition minimum; that fits only when m is large.
    rep = check_ks14(m=4000, k=2, d=3000, delta=0.05, trials=200, rng=16)
    assert rep.params["lower_applicable"] > 100
    assert rep.params["lower_violations"] == 0


# ---------------------------------------------------------------------------
# eigenvalue lower tail
# ---------------------------------------------------------------------------

def test_matcher_deterministic_summands_hit_expectation():
    # With identical summands the r-th eigenvalue of the sum equals the
    # r-th eigenvalue of the expectation exactly.
    gen = np.random.default_rng(16)
    x = gen.standard_normal((4, 4))
    x = x @ x.T
    total = sum(x for _ in range(25))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(total), 25 * np.linalg.eigvalsh(x), rtol=1e-10
    )


def test_matcher_vacuous_at_zero_epsilon():
    rep = check_matcher(n_dim=20, r=3, L_bound=None, epsilon_chern=0.0,
                        trials=50, rng=17, num_draws=60)
    assert rep.params["vacuous"]
    assert rep.verdict == "N/A"


def test_matcher_within_bound_at_example_scale():
    rep = check_matcher(n_dim=50, r=5, L_bound=None, epsilon_chern=0.5,
                        trials=2000, rng=18, num_draws=200)
    assert not rep.params["vacuous"]
    assert rep.violation_rate <= rep.theoretical_bound + rep.slack
    assert rep.verdict == "PASS"


def test_matcher_explicit_bound_scales_rows():
    rep = check_matcher(n_dim=30, r=3, L_bound=0.5, epsilon_chern=0.5,
                        trials=200, rng=19, num_draws=120)
    assert rep.params["L"] == pytest.approx(0.5)


def test_matcher_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        check_matcher(n_dim=10, r=2, L_bound=None, epsilon_chern=1.0,
                      trials=1, rng=0)
