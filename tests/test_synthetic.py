import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from adaptive_mc.linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    _block_rows,
    coherence,
    orthonormalize,
    subspace_subspace_angle,
)
from adaptive_mc import synthetic
from adaptive_mc.sampling import RngState, as_generator
from adaptive_mc.synthetic import (
    ObservationOracle,
    ProblemInstance,
    _check_instance,
    add_bounded_noise,
    generate_low_rank,
    load_instance,
    make_instance,
    read_matrix,
    save_instance,
    write_matrix,
)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_columns_are_unit_norm():
    L, _ = generate_low_rank(30, 40, 5, RngState(0))
    np.testing.assert_allclose(np.linalg.norm(L, axis=0), 1.0, atol=1e-12)


def test_rank_is_exactly_r():
    L, _ = generate_low_rank(30, 40, 5, RngState(1))
    sv = np.linalg.svd(L, compute_uv=False)
    assert sv[4] >= 1e-6
    assert sv[5] <= 1e-9


def test_rank_one_columns_are_collinear():
    L, _ = generate_low_rank(6, 8, 1, RngState(2))
    cors = np.abs(L.T @ L[:, 0])
    np.testing.assert_allclose(cors, 1.0, atol=1e-12)


def test_leading_block_well_conditioned():
    L, basis = generate_low_rank(25, 30, 4, RngState(3))
    coeff = basis.matrix.T @ L
    # Columns of the leading block are unit norm; after undoing the unit
    # scaling the raw block had smallest singular value >= 0.1, so the
    # scaled block stays solidly nonsingular.
    assert np.linalg.svd(coeff[:, :4], compute_uv=False)[-1] > 1e-3


def test_spiked_mode_raises_coherence():
    m, r = 50, 5
    _, basis = generate_low_rank(m, 80, r, RngState(4), coherence_mode="spiked",
                                 spike_index=0, spike_weight=0.99)
    assert coherence(basis) >= 0.9 * m / r


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        generate_low_rank(5, 8, 6, RngState(0))
    with pytest.raises(ValueError):
        generate_low_rank(5, 8, 0, RngState(0))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_zero_noise_is_exact():
    L, basis = generate_low_rank(20, 25, 3, RngState(5))
    inst = add_bounded_noise(L, 0.0, RngState(6), true_basis=basis)
    np.testing.assert_array_equal(inst.M, inst.L)
    np.testing.assert_array_equal(inst.zeta, 0.0)


def test_sphere_noise_has_exact_radius():
    L, basis = generate_low_rank(20, 25, 3, RngState(7))
    inst = add_bounded_noise(L, 0.05, RngState(8), mode="sphere",
                             true_basis=basis)
    np.testing.assert_allclose(np.linalg.norm(inst.zeta, axis=0), 0.05,
                               atol=1e-12)


def test_scaled_gaussian_noise_within_radius():
    L, basis = generate_low_rank(20, 25, 3, RngState(9))
    inst = add_bounded_noise(L, 0.05, RngState(10), mode="scaled-gaussian",
                             true_basis=basis)
    norms = np.linalg.norm(inst.zeta, axis=0)
    assert np.all(norms <= 0.05 + 1e-12)
    # Radii vary rather than sitting on the sphere.
    assert norms.std() > 0


def test_zeta_is_m_minus_l():
    inst = make_instance(20, 25, 3, 0.05, seed=13)
    np.testing.assert_array_equal(inst.zeta, inst.M - inst.L)
    with pytest.raises(TypeError, match="zeta"):
        ProblemInstance(L=inst.L, zeta=inst.zeta, M=inst.M,
                        true_basis=inst.true_basis, epsilon=inst.epsilon)


def test_instance_holds_only_l_and_m():
    # numpy reports its buffers to tracemalloc.  Once built, an instance
    # holds two m x n arrays, L and M; the noise is not kept beside them.
    m, n = 2000, 600
    tracemalloc.start()
    try:
        inst = make_instance(m, n, 3, 0.01, seed=15)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert inst.M.shape == (m, n)
    assert held <= 2 * 8 * m * n + 1_000_000, held


def _direct_noisy_matrix(L, epsilon, rng, mode):
    """``M`` by the direct formula: one draw from the noise stream, its
    ``np.linalg.norm`` over axis 0, the scale, then ``+ L``."""
    gen = as_generator(rng)
    zeta = gen.standard_normal(L.shape)
    norms = np.linalg.norm(zeta, axis=0)
    if mode == "sphere":
        zeta *= epsilon / norms
    else:
        zeta *= gen.uniform(0.0, epsilon, size=L.shape[1]) / norms
    return zeta + L


# One column taller than a row block: at seeds 2 and 4, summing it block
# by block instead of pairwise in one block changes the bits of M.
@pytest.mark.parametrize("m, n, r, mode, seed", [
    (3000, 300, 4, "sphere", 21),        # several row blocks
    (3000, 300, 4, "scaled-gaussian", 21),
    (140_000, 1, 1, "sphere", 2),
    (140_000, 1, 1, "scaled-gaussian", 4),
    (1000, 2, 2, "scaled-gaussian", 21),
])
def test_noisy_matrix_is_bit_identical_to_direct_formula(m, n, r, mode,
                                                          seed):
    inst = make_instance(m, n, r, 0.05, seed, noise_mode=mode)
    want = _direct_noisy_matrix(
        inst.L, 0.05, RngState(seed).substream(synthetic._STREAM_NOISE), mode)
    assert inst.M.tobytes() == want.tobytes()


def test_zero_noise_matrix_is_bit_identical_to_zeros_plus_l():
    L = -np.eye(6, 4)          # unit columns holding -0.0 entries
    assert np.signbit(L[1, 0])
    inst = add_bounded_noise(L, 0.0, RngState(0),
                             OrthonormalBasis(np.eye(6, 4)))
    assert inst.M.tobytes() == (np.zeros_like(L) + L).tobytes()
    assert not np.signbit(inst.M[1, 0])


def test_set_up_makes_no_m_by_n_temporary():
    # numpy reports its buffers to tracemalloc.  Building an instance
    # holds L and the draw that becomes M, plus row blocks of about a
    # megabyte: norms over the whole m x n draw, or the check's norms of
    # L, would each add one more m x n array.
    m, n = 2000, 600
    tracemalloc.start()
    try:
        inst = make_instance(m, n, 3, 0.01, seed=15)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _check_instance(inst)
        check_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert build_peak <= 2.7 * 8 * m * n, build_peak / (8 * m * n)
    assert check_peak <= 0.5 * 8 * m * n, check_peak / (8 * m * n)


def test_epsilon_bound_enforced():
    L, basis = generate_low_rank(10, 10, 2, RngState(11))
    with pytest.raises(ValueError, match="epsilon must be < 0.25"):
        add_bounded_noise(L, 0.3, RngState(0), basis)
    with pytest.raises(ValueError, match="epsilon must be < 0.25"):
        add_bounded_noise(L, 0.25, RngState(0), basis)


@pytest.mark.parametrize("epsilon, basis_matrix, message", [
    (-0.01, None, r"epsilon must be < 0.25 and non-negative .*got -0.01"),
    (0.01, np.eye(12)[:, :2], r"expected \(10, r\)"),
    (0.01, np.zeros((10, 0)), r"1 <= r <= 6"),
    (0.01, np.eye(10)[:, :7], r"1 <= r <= 6"),
])
def test_add_bounded_noise_rejects_bad_input_before_any_draw(
        monkeypatch, epsilon, basis_matrix, message):
    L, basis = generate_low_rank(10, 6, 2, RngState(11))
    if basis_matrix is not None:
        basis = OrthonormalBasis(basis_matrix)

    def no_draws(self):
        raise AssertionError("noise was drawn before validation")
    monkeypatch.setattr(RngState, "generator", no_draws)
    with pytest.raises(ValueError, match=message):
        add_bounded_noise(L, epsilon, RngState(0), basis)


def test_instance_rank_is_the_basis_dimension():
    inst = make_instance(20, 25, 3, 0.01, seed=12)
    assert inst.r == inst.true_basis.dim == 3


def test_noise_perturbs_singular_subspace_mildly():
    # Calibration: the angle between the clean column space and the top-r
    # left singular subspace of the noisy matrix stays below 0.5 rad.
    inst = make_instance(40, 60, 3, 0.05, seed=14)
    u, _, _ = np.linalg.svd(inst.M, full_matrices=False)
    noisy_basis = orthonormalize(u[:, :3])
    angle = subspace_subspace_angle(inst.true_basis, noisy_basis)
    assert angle <= 0.5


def test_make_instance_deterministic():
    a = make_instance(15, 20, 2, 0.02, seed=99)
    b = make_instance(15, 20, 2, 0.02, seed=99)
    np.testing.assert_array_equal(a.M, b.M)


def test_spiked_mode_rejects_bad_spike_weight():
    for weight in (float("nan"), float("inf"), 5.0, -1.0):
        with pytest.raises(ValueError, match="spike_weight"):
            generate_low_rank(20, 10, 2, RngState(0), coherence_mode="spiked",
                              spike_weight=weight)
    with pytest.raises(ValueError, match="spike_index"):
        generate_low_rank(20, 10, 2, RngState(0), coherence_mode="spiked",
                          spike_index=20)


class _ZeroLastColumn(np.random.Generator):
    """A generator whose Gaussian draws of one shape end in a zero column:
    the degenerate draw that has probability zero."""

    def __init__(self, shape):
        super().__init__(np.random.Philox(0))
        self.shape = shape

    def standard_normal(self, size=None):
        out = super().standard_normal(size)
        if size == self.shape:
            out[..., -1] = 0.0
        return out


def test_rank_deficient_basis_draw_raises(monkeypatch):
    monkeypatch.setattr(synthetic, "orthonormalize",
                        lambda raw: orthonormalize(raw[:, :-1]))
    with pytest.raises(RuntimeError, match="basis block of rank 1 < r = 2"):
        generate_low_rank(6, 5, 2, RngState(0))


def test_zero_coefficient_column_raises():
    with pytest.raises(RuntimeError, match="all-zero coefficient column"):
        generate_low_rank(6, 5, 2, _ZeroLastColumn((2, 5)))


@pytest.mark.parametrize("mode", ["sphere", "scaled-gaussian"])
def test_zero_noise_column_raises(mode):
    L, basis = generate_low_rank(6, 5, 2, RngState(0))
    with pytest.raises(RuntimeError, match="all-zero noise column"):
        add_bounded_noise(L, 0.1, _ZeroLastColumn((6, 5)), basis, mode=mode)


# ---------------------------------------------------------------------------
# instance invariant check
# ---------------------------------------------------------------------------

def _unit_columns(a):
    return a / np.linalg.norm(a, axis=0)


def _low_rank(gen, m, n, r):
    """A unit-column rank-r matrix and an orthonormal basis of its span."""
    basis = np.linalg.qr(gen.standard_normal((m, r)))[0]
    return _unit_columns(basis @ gen.standard_normal((r, n))), basis


def _instance(L, basis, zeta=None, epsilon=0.0):
    zeta = np.zeros_like(L) if zeta is None else zeta
    return ProblemInstance(L=L, M=L + zeta,
                           true_basis=OrthonormalBasis(basis, check=False),
                           epsilon=epsilon)


def _svd_rule_rejects(inst):
    """The invariant check as a full SVD of L states it: the reference the
    basis-based check must be at least as strict as."""
    if np.max(np.abs(np.linalg.norm(inst.L, axis=0) - 1.0)) > 1e-12:
        return True
    if np.max(np.linalg.norm(inst.zeta, axis=0)) > inst.epsilon + 1e-12:
        return True
    sv = np.linalg.svd(inst.L, compute_uv=False)
    return bool(sv[inst.r - 1] < 1e-6
                or (inst.r < min(inst.L.shape) and sv[inst.r] > 1e-9))


def _check_rejects(inst):
    try:
        _check_instance(inst)
    except AssertionError:
        return True
    return False


def test_check_rejects_non_unit_column():
    L, basis = _low_rank(np.random.default_rng(1), 30, 40, 4)
    L[:, 7] *= 1.0 + 1e-9
    with pytest.raises(AssertionError, match="unit norm"):
        _check_instance(_instance(L, basis))


def test_check_rejects_noise_above_epsilon():
    gen = np.random.default_rng(2)
    L, basis = _low_rank(gen, 30, 40, 4)
    zeta = 0.05 * _unit_columns(gen.standard_normal((30, 40)))
    zeta[:, 3] *= 1.0 + 1e-6
    with pytest.raises(AssertionError, match="epsilon bound"):
        _check_instance(_instance(L, basis, zeta=zeta, epsilon=0.05))


def test_check_rejects_nan_noise():
    gen = np.random.default_rng(2)
    L, basis = _low_rank(gen, 30, 40, 4)
    zeta = 0.05 * _unit_columns(gen.standard_normal((30, 40)))
    zeta[11, 5] = np.nan
    with pytest.raises(AssertionError, match="epsilon bound"):
        _check_instance(_instance(L, basis, zeta=zeta, epsilon=0.05))


def test_check_rejects_nan_in_l_as_not_unit_norm():
    L, basis = _low_rank(np.random.default_rng(1), 30, 40, 4)
    L[3, 7] = np.nan
    with pytest.raises(AssertionError, match="unit norm"):
        _check_instance(_instance(L, basis))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_check_rejects_inf_in_l_as_not_unit_norm(bad):
    L, basis = _low_rank(np.random.default_rng(1), 30, 40, 4)
    L[3, 7] = bad
    with pytest.raises(AssertionError, match="unit norm"):
        _check_instance(_instance(L, basis))


def test_check_rejects_hidden_extra_direction():
    gen = np.random.default_rng(3)
    m, n, r = 30, 40, 4
    L, basis = _low_rank(gen, m, n, r)
    extra = np.outer(gen.standard_normal(m), gen.standard_normal(n))
    L = _unit_columns(L + 1e-8 * extra / np.linalg.norm(extra, 2))
    sv = np.linalg.svd(L, compute_uv=False)
    assert sv[r] > 1e-9
    with pytest.raises(AssertionError, match="rank above r"):
        _check_instance(_instance(L, basis))


def test_check_rejects_weak_rth_direction():
    gen = np.random.default_rng(4)
    m, n, r = 30, 40, 4
    basis = np.linalg.qr(gen.standard_normal((m, r)))[0]
    coeff = gen.standard_normal((r, n))
    coeff[-1] *= 1e-9
    L = _unit_columns(basis @ coeff)
    assert np.linalg.svd(L, compute_uv=False)[r - 1] < 1e-6
    with pytest.raises(AssertionError, match="does not expose rank r"):
        _check_instance(_instance(L, basis))


def test_check_rejects_basis_that_does_not_span_L():
    gen = np.random.default_rng(5)
    L, _ = _low_rank(gen, 30, 40, 4)
    other = np.linalg.qr(gen.standard_normal((30, 4)))[0]
    with pytest.raises(AssertionError, match="does not span"):
        _check_instance(_instance(L, other))


def test_check_rejects_basis_with_too_few_columns():
    L, basis = _low_rank(np.random.default_rng(6), 30, 40, 4)
    with pytest.raises(AssertionError, match="does not span"):
        _check_instance(_instance(L, basis[:, :3]))


def test_check_is_at_least_as_strict_as_svd_rule():
    gen = np.random.default_rng(7)
    scales = (1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3)
    kinds = ("extra", "weak", "tilt", "stretch", "other")
    svd_rejects = accepted = 0
    for _ in range(600):
        m, n = (int(x) for x in gen.integers(2, 12, size=2))
        r = int(gen.integers(1, min(m, n) + 1))
        basis = np.linalg.qr(gen.standard_normal((m, r)))[0]
        coeff = gen.standard_normal((r, n))
        kind = kinds[int(gen.integers(len(kinds)))]
        t = scales[int(gen.integers(len(scales)))]
        if kind == "weak":
            coeff[-1] *= t
        L = basis @ coeff
        if kind == "extra":
            L += t * np.outer(gen.standard_normal(m), gen.standard_normal(n))
        L = _unit_columns(L)
        if kind == "tilt":
            basis = basis + t * gen.standard_normal((m, r))
            basis = np.linalg.qr(basis)[0]
        elif kind == "stretch":
            basis = basis * (1.0 + t * gen.standard_normal(r))
        elif kind == "other":
            basis = np.linalg.qr(gen.standard_normal((m, r)))[0]
        inst = _instance(L, basis)
        old, new = _svd_rule_rejects(inst), _check_rejects(inst)
        assert new or not old, (kind, t, m, n, r)
        svd_rejects += old
        accepted += not new
    # Both outcomes occur, so the implication above is not vacuous.
    assert svd_rejects > 50
    assert accepted > 50


# ---------------------------------------------------------------------------
# oracle accounting
# ---------------------------------------------------------------------------

def test_oracle_counts_fresh_entries_once():
    inst = make_instance(12, 9, 2, 0.0, seed=0)
    oracle = ObservationOracle(inst.M)
    omega = np.array([0, 3, 5, 7])
    got = oracle.entries(omega, 4)
    np.testing.assert_array_equal(got, inst.M[omega, 4])
    assert oracle.entry_count == 4
    # Full column after a partial read only adds the remainder.
    oracle.column(4)
    assert oracle.entry_count == 12
    # Second read of the same pattern is free.
    oracle.entries(omega, 4)
    assert oracle.entry_count == 12


def test_oracle_single_entry_reads():
    oracle = ObservationOracle(np.arange(6.0).reshape(2, 3))
    assert oracle.entry(1, 2) == 5.0
    assert oracle.entry(1, 2) == 5.0
    assert oracle.entry_count == 1


def test_oracle_rejects_bad_indices():
    oracle = ObservationOracle(np.zeros((4, 4)))
    with pytest.raises(IndexError):
        oracle.entry(4, 0)
    with pytest.raises(IndexError):
        oracle.column(4)
    with pytest.raises(IndexError):
        oracle.entries([0, 5], 0)
    with pytest.raises(ValueError):
        oracle.entries([2, 2], 0)


@pytest.mark.parametrize("omega", [[0.5, 2.7], np.array([1.0, 2.0]),
                                   [True, False]],
                         ids=["fractional", "float-array", "bool"])
@pytest.mark.parametrize("entry_point", ["oracle.entries", "RestrictedSolver"])
def test_non_integer_index_sets_rejected_before_any_read(entry_point, omega):
    # Casting would read rows [0, 2], [1, 2] or [1, 0] instead: a
    # fractional or boolean row set is refused, never truncated.
    oracle = ObservationOracle(np.arange(12.0).reshape(4, 3))
    with pytest.raises(ValueError, match="integer dtype"):
        if entry_point == "oracle.entries":
            oracle.entries(omega, 0)
        else:
            RestrictedSolver(orthonormalize([np.ones(4)]), omega)
    assert oracle.entry_count == 0
    # The rejected read left no record: a valid read counts its rows only.
    oracle.entries(np.array([1, 3]), 0)
    assert oracle.entry_count == 2


def test_oracle_concurrent_reads_lose_no_counts():
    import concurrent.futures

    gen = np.random.default_rng(21)
    m, n = 64, 32
    oracle = ObservationOracle(gen.standard_normal((m, n)))
    omegas = [np.sort(gen.choice(m, size=16, replace=False)) for _ in range(n)]

    def reader(j):
        oracle.entries(omegas[j], j)
        oracle.column(j)
        oracle.entries(omegas[j], j)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(reader, range(n)))
    assert oracle.entry_count == m * n


def test_oracle_count_matches_independent_set():
    gen = np.random.default_rng(3)
    oracle = ObservationOracle(gen.standard_normal((20, 15)))
    seen = set()
    for _ in range(200):
        op = gen.integers(3)
        j = int(gen.integers(15))
        if op == 0:
            i = int(gen.integers(20))
            oracle.entry(i, j)
            seen.add((i, j))
        elif op == 1:
            omega = np.sort(gen.choice(20, size=int(gen.integers(1, 8)),
                                       replace=False))
            oracle.entries(omega, j)
            seen.update((int(i), j) for i in omega)
        else:
            oracle.column(j)
            seen.update((i, j) for i in range(20))
    assert oracle.entry_count == len(seen)


@pytest.mark.parametrize("kind", ["array", "masked"])
def test_oracle_record_ignores_later_writes_to_omega(kind):
    # A writable omega is copied into the record: writing to it after the
    # read changes neither the count nor the rows the oracle holds.  A
    # masked array converts to a view of the caller's data.
    oracle = ObservationOracle(np.arange(12.0 * 9).reshape(12, 9))
    omega = np.array([0, 3, 5, 7])
    if kind == "masked":
        omega = np.ma.masked_array(omega)
    oracle.entries(omega, 4)
    omega[:] = [8, 9, 10, 11]
    assert oracle.entry_count == 4
    oracle.entries(np.array([0, 3, 5, 7]), 4)
    assert oracle.entry_count == 4
    oracle.entries(np.array([8, 9, 10, 11]), 4)
    assert oracle.entry_count == 8


@pytest.mark.parametrize("kind", ["writable", "read-only-view"])
def test_oracle_revalidates_omega_it_cannot_trust(kind):
    # Only a read-only omega that owns its data skips the second check: a
    # writable one, or a read-only view of a writable buffer, can change.
    oracle = ObservationOracle(np.zeros((6, 3)))
    base = np.array([1, 2, 4])
    omega = base
    if kind == "read-only-view":
        omega = base[:]
        omega.flags.writeable = False
    oracle.entries(omega, 0)
    base[2] = 6
    with pytest.raises(IndexError):
        oracle.entries(omega, 1)
    base[2] = 2
    with pytest.raises(ValueError, match="strictly increasing"):
        oracle.entries(omega, 1)
    assert oracle.entry_count == 3


def test_oracle_full_row_read_then_column_adds_nothing():
    m = 12
    oracle = ObservationOracle(np.ones((m, 5)))
    oracle.entries(np.arange(m), 2)
    assert oracle.entry_count == m
    oracle.column(2)
    assert oracle.entry_count == m
    oracle.entries(np.array([1, 4]), 2)
    assert oracle.entry_count == m


def test_oracle_memory_order_does_not_change_reads():
    gen = np.random.default_rng(5)
    hidden = gen.standard_normal((20, 15))
    oracles = [ObservationOracle(np.ascontiguousarray(hidden)),
               ObservationOracle(np.asfortranarray(hidden))]
    for _ in range(100):
        op = gen.integers(3)
        j = int(gen.integers(15))
        if op == 0:
            i = int(gen.integers(20))
            got = [o.entry(i, j) for o in oracles]
        elif op == 1:
            omega = np.sort(gen.choice(20, size=int(gen.integers(1, 8)),
                                       replace=False))
            got = [o.entries(omega, j) for o in oracles]
            np.testing.assert_array_equal(got[0], hidden[omega, j])
        else:
            got = [o.column(j) for o in oracles]
            np.testing.assert_array_equal(got[0], hidden[:, j])
        np.testing.assert_array_equal(got[0], got[1])
        assert oracles[0].entry_count == oracles[1].entry_count


# The oracle copies and checks its input a block of rows at a time: with
# 1000 columns the blocks are _block_rows(1000) = 131 rows high, and 400
# rows make three full blocks and a partial one.
_TILED = (400, 1000)


@pytest.mark.parametrize("row", [0, _block_rows(_TILED[1]) + 5, _TILED[0] - 1],
                         ids=["first-block", "interior-block", "last-block"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracle_rejects_a_non_finite_entry_in_any_block(row, bad):
    assert _TILED[0] % _block_rows(_TILED[1]) != 0
    hidden = np.random.default_rng(2).standard_normal(_TILED)
    hidden[row, 617] = bad
    with pytest.raises(ValueError, match="must be finite"):
        ObservationOracle(hidden)


@pytest.mark.parametrize("shape", [(7, 0), (0, 4)])
def test_oracle_builds_on_an_empty_matrix(shape):
    oracle = ObservationOracle(np.zeros(shape))
    assert oracle.shape == shape
    assert oracle.entry_count == 0
    if shape[1]:
        assert oracle.column(shape[1] - 1).shape == (0,)


@pytest.mark.parametrize("order", ["C", "F"])
def test_oracle_reads_its_own_copy(order):
    hidden = np.asarray(np.random.default_rng(4).standard_normal(_TILED),
                        order=order)
    saved = hidden.copy()
    oracle = ObservationOracle(hidden)
    hidden[:] = np.nan
    for j in (0, 500, 999):
        np.testing.assert_array_equal(oracle.column(j), saved[:, j])
    omega = np.arange(0, _TILED[0], 7)
    np.testing.assert_array_equal(oracle.entries(omega, 3), saved[omega, 3])
    np.testing.assert_array_equal(oracle.entry(399, 998), saved[399, 998])
    assert not oracle._hidden.flags.writeable


def test_oracle_construction_allocates_only_its_store():
    # numpy reports its buffers to tracemalloc.  The oracle holds the
    # float copy and empty read records; the blockwise copy and finite
    # check add at most a block, never an m x n temporary.  At this size
    # an m x n bool mask (3 MB) is larger than the 2 MB allowance.
    m, n = 2000, 1500
    hidden = np.random.default_rng(6).standard_normal((m, n))
    tracemalloc.start()
    try:
        ObservationOracle(hidden)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * m * n + 2_000_000, peak


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_matrix_round_trip_is_exact(tmp_path):
    gen = np.random.default_rng(17)
    a = gen.standard_normal((7, 5)) * 10.0 ** gen.integers(-8, 8, size=(7, 5))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    got = read_matrix(path)
    np.testing.assert_array_equal(got, a)
    header = path.read_text().splitlines()[0]
    assert header == "7 5"


def _per_value_bytes(a):
    m, n = a.shape
    lines = [f"{m} {n}"] + [" ".join(f"{v:.17e}" for v in row) for row in a]
    return ("\n".join(lines) + "\n").encode("ascii")


def _with_neighbours(x):
    """``x`` with both signs and one ulp below and above each value."""
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def _log_uniform(gen, size, lo, hi):
    signs = gen.choice([-1.0, 1.0], size)
    return signs * np.exp(gen.uniform(np.log(lo), np.log(hi), size))


_FAST_ROWS = np.random.default_rng(21).standard_normal((5, 9))


@pytest.mark.parametrize("a", [
    np.array([[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.0],
              [-1.5, 1.0 / 3.0, -2.2250738585072014e-308]]),
    np.array([[-7.25e-3]]),
    np.random.default_rng(18).standard_normal((4, 6)),
    # Mostly outside the fast window: every kind of fallback value.
    np.random.default_rng(22).integers(
        0, 2 ** 64, size=(500, 20), dtype=np.uint64).view(float),
    _log_uniform(np.random.default_rng(23), 20000, 1e-14, 1e14).reshape(
        1000, 20),
    _with_neighbours(10.0 ** np.arange(-22, 23)).reshape(-1, 6),
    # k * 2**-20 with k odd has 19 significant digits, the last a 5, when
    # it lies in [0.01, 0.1): it is a tie at 18 digits.  So is 2**-27.
    np.concatenate([np.arange(10487, 104858, 14) * 2.0 ** -20,
                    np.arange(10489, 104858, 14) * 2.0 ** -20,
                    np.arange(0, 3000) + 0.5, [2.0 ** -27]])[:, None],
    _with_neighbours(np.array([synthetic._FAST_MIN, synthetic._FAST_MAX,
                               1e-10, 1e11])).reshape(8, 3),
    np.vstack([_FAST_ROWS, [1.5, 0.0, -2.5e-11, 3e10, np.nan, -0.0, -np.inf,
                            5e-324, -7.0], _FAST_ROWS]),
    np.random.default_rng(24).standard_normal((3000, 1)),
    np.random.default_rng(25).standard_normal(
        (1, 2 * synthetic._TEXT_BLOCK + 5)),
    np.random.default_rng(26).standard_normal((1000, 7)),
], ids=["edges", "1x1", "gaussian", "bit-patterns", "log-uniform",
        "powers-of-ten", "dyadic-ties", "window-edges", "mixed-row", "n=1",
        "m=1", "ragged-last-block"])
def test_write_matrix_bytes_match_per_value_format(tmp_path, a):
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    assert path.read_bytes() == _per_value_bytes(a)
    got = read_matrix(path)
    np.testing.assert_array_equal(got, a)
    # A NaN is written as "nan" whatever its sign bit, as Python prints it.
    number = ~np.isnan(a)
    np.testing.assert_array_equal(np.signbit(got)[number],
                                  np.signbit(a)[number])


def test_no_double_in_the_fast_window_rounds_into_the_next_decade():
    # The formatter has no carry step: rounding to 18 digits reaches
    # 10**j only from within half a unit in the 18th digit below it, and
    # the largest double below each power of ten in the window is further.
    for j in range(synthetic._EXP_MIN + 1, synthetic._EXP_MAX + 2):
        power = Fraction(10) ** j
        below = float(power)
        while Fraction(below) >= power:
            below = np.nextafter(below, 0)
        assert power - Fraction(below) > Fraction(10) ** (j - 18) / 2, j


def test_write_matrix_makes_no_m_by_n_temporary(tmp_path):
    # numpy reports its buffers to tracemalloc.  The writer formats a
    # block of a few thousand values at a time; formatting the whole
    # matrix at once would need several m x n arrays.
    m, n = 2000, 600
    a = np.random.default_rng(27).standard_normal((m, n))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "a.mat", a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 8 * m * n, peak / (8 * m * n)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_write_matrix_rejects_an_empty_matrix(tmp_path, shape):
    path = tmp_path / "a.mat"
    with pytest.raises(ValueError, match="empty"):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("header", [
    "0 3", "-1 2", "3 0", "2", "2 3 4", "a 3", "2 x", "+2 2", "2.0 2", "",
])
def test_read_matrix_rejects_a_bad_header_before_parsing_rows(tmp_path,
                                                              header):
    path = tmp_path / "a.mat"
    path.write_text(header + "\n1 2\n3 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            read_matrix(path)
    assert str(info.value) == (f"{path}: header must be two positive "
                               f"integers 'm n'; got {header!r}")


@pytest.mark.parametrize("body, message", [
    (b"2 2\n1 2\n3 x\n", "line 3: 'x' is not a number"),
    (b"2 2\n1 2\n3\n", "line 3: expected 2 values, found 1"),
    (b"2 2\n1 2\n3 \xff\n", "line 3: bytes that are not ASCII"),
    (b"2 2\n1 2\n", "header promises 2x2, found (1, 2)"),
    (b"2 2\n", "no data rows after the header"),
], ids=["token", "ragged", "not-ascii", "short", "no-rows"])
def test_read_matrix_names_its_file_in_every_error(tmp_path, body, message):
    path = tmp_path / "a.mat"
    path.write_bytes(body)
    with pytest.raises(ValueError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: {message}"


# Lines are counted in the file, the header being line 1, whatever lies
# between the rows; numpy's own row numbers skip blank lines.
@pytest.mark.parametrize("body, line", [
    (b"2 3\n1 2 3\n4 x 6\n", 3),
    (b"2 3\n1 2 3\n4 1_0 6\n", 3),
    (b"2 3\n1 2 3\n4 6\n", 3),
    (b"2 3\nx 2 3\n4 5 6\n", 2),
    (b"2 3\n1 2 3 4\n5 6 7\n", 2),
    (b"2 3\n1 2 3\n\n\n4 x 6\n", 5),
    (b"2 3\n1 2 3\n4 5 \xff\n", 3),
    (b"\xff 3\n1 2 3\n", 1),
    (b"2 3\n" + b"1 2 3\n" * 3000 + b"4 x 6\n", 3002),
    (b"2 3\n" + b"1 2 3\n" * 3000 + b"4 5 \xff\n", 3002),
], ids=["token", "underscore", "short-row", "token-first-row", "long-row", "blank-lines",
        "not-ascii", "not-ascii-header", "token-far", "not-ascii-far"])
def test_read_matrix_errors_give_the_file_line(tmp_path, body, line):
    path = tmp_path / "a.mat"
    path.write_bytes(body)
    with pytest.raises(ValueError) as info:
        read_matrix(path)
    assert str(info.value).startswith(f"{path}: line {line}: "), info.value
    assert "usecols" not in str(info.value)


def test_instance_bundle_round_trip(tmp_path):
    inst = make_instance(10, 8, 2, 0.01, seed=5)
    save_instance(tmp_path / "inst", inst, seed=5, noise_mode="sphere")
    L, M, meta = load_instance(tmp_path / "inst")
    np.testing.assert_array_equal(L, inst.L)
    np.testing.assert_array_equal(M, inst.M)
    assert meta["m"] == "10"
    assert meta["n"] == "8"
    assert meta["r"] == "2"
    assert float(meta["epsilon"]) == 0.01
    assert meta["seed"] == "5"
    assert meta["mode"] == "sphere"
    assert float(meta["mu"]) == pytest.approx(coherence(inst.true_basis))
