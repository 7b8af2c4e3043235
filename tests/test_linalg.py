import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_mc.linalg import (
    LSTSQ_RCOND,
    OrthonormalBasis,
    RestrictedSolver,
    coherence,
    extend_basis,
    orthonormalize,
    project,
    subspace_subspace_angle,
    vector_coherence,
    vector_subspace_angle,
    vector_vector_angle,
)


def e(i, m):
    v = np.zeros(m)
    v[i] = 1.0
    return v


def random_basis(seed, m, k):
    gen = np.random.default_rng(seed)
    return orthonormalize(gen.standard_normal((m, k)))


# ---------------------------------------------------------------------------
# orthonormalize
# ---------------------------------------------------------------------------

def test_orthonormalize_already_orthonormal():
    b = orthonormalize([e(0, 3), e(1, 3)])
    assert b.dim == 2
    np.testing.assert_allclose(b.matrix.T @ b.matrix, np.eye(2), atol=1e-14)


def test_orthonormalize_duplicate_adds_nothing():
    b = orthonormalize([e(0, 3), e(0, 3)])
    assert b.dim == 1
    np.testing.assert_allclose(np.abs(b.matrix[:, 0]), e(0, 3))


def test_orthonormalize_drops_dependent_vector():
    vecs = [np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]),
            np.array([2.0, 0.0, 0.0])]
    b = orthonormalize(vecs)
    assert b.dim == 2
    # Span equality: every input projects onto the basis with residual ~ 0.
    for v in vecs:
        residual = v - project(b, v)
        assert np.linalg.norm(residual) < 1e-10
    # The basis spans the e1-e2 plane: e3 is orthogonal to it.
    assert np.linalg.norm(project(b, e(2, 3))) < 1e-12


def test_orthonormalize_mixed_lengths_rejected():
    with pytest.raises(ValueError):
        orthonormalize([np.ones(3), np.ones(4)])


def test_orthonormalize_empty_input_rejected():
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_accepts_matrix_columns():
    gen = np.random.default_rng(0)
    mat = gen.standard_normal((6, 3))
    b = orthonormalize(mat)
    assert b.dim == 3


def test_extend_basis_matches_orthonormalize_bit_for_bit():
    gen = np.random.default_rng(8)
    vecs = list(gen.standard_normal((5, 9)))
    # A vector in the span of the first two is dropped by both paths.
    vecs.insert(2, 0.5 * vecs[0] - 2.0 * vecs[1])
    basis = OrthonormalBasis.empty(9)
    for v in vecs:
        basis = extend_basis(basis, v)
    expected = orthonormalize(vecs)
    assert basis.dim == expected.dim == 5
    np.testing.assert_array_equal(basis.matrix, expected.matrix)


def test_extend_basis_returns_same_basis_for_dependent_vector():
    b = orthonormalize([e(0, 3), e(1, 3)])
    assert extend_basis(b, np.array([2.0, -1.0, 0.0])) is b


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_basis_is_immutable():
    b = random_basis(1, 5, 2)
    with pytest.raises(ValueError):
        b.matrix[0, 0] = 7.0


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_onto_axis():
    b = orthonormalize([e(0, 3)])
    np.testing.assert_allclose(project(b, np.array([2.0, 3.0, 4.0])),
                               [2.0, 0.0, 0.0])


def test_project_empty_basis_is_zero_map():
    b = OrthonormalBasis.empty(4)
    np.testing.assert_array_equal(project(b, np.arange(4.0)), np.zeros(4))


def test_project_hand_value():
    # u = (1,1,0)/sqrt(2); u u^T (1,0,0) = (0.5, 0.5, 0).
    b = orthonormalize([np.array([1.0, 1.0, 0.0])])
    np.testing.assert_allclose(project(b, e(0, 3)), [0.5, 0.5, 0.0],
                               atol=1e-15)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(random_basis(0, 5, 2), np.ones(4))


# ---------------------------------------------------------------------------
# restricted least squares
# ---------------------------------------------------------------------------

def test_restricted_residual_axis_basis():
    b = orthonormalize([e(0, 4)])
    assert RestrictedSolver(b, [0, 1]).fit([5.0, 3.0])[1] == pytest.approx(3.0)


def test_restricted_residual_empty_basis_is_norm():
    b = OrthonormalBasis.empty(4)
    assert RestrictedSolver(b, [0, 1]).fit([3.0, 4.0])[1] == pytest.approx(5.0)


def test_restricted_residual_against_normal_equations():
    # Basis (1,1,1)/sqrt(3) restricted to rows {0,1}; fit (1, 0).
    b = orthonormalize([np.ones(3)])
    omega = np.array([0, 1])
    y = np.array([1.0, 0.0])
    got = RestrictedSolver(b, omega).fit(y)[1]
    # Independent oracle: explicit normal-equations solve.
    a = b.matrix[omega, :]
    coef = np.linalg.solve(a.T @ a, a.T @ y)
    expected = np.linalg.norm(y - a @ coef)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_restricted_lstsq_flags_degeneracy():
    b = random_basis(3, 6, 3)
    # One sampled row cannot pin down three coefficients.
    solver = RestrictedSolver(b, [2])
    coef, residual = solver.fit([1.0])
    assert solver.degenerate
    assert np.isfinite(residual)
    assert coef.shape == (3,)


def test_restricted_lstsq_full_rows_not_degenerate():
    b = random_basis(4, 6, 3)
    y = np.arange(6.0)
    solver = RestrictedSolver(b, np.arange(6))
    _, residual = solver.fit(y)
    assert not solver.degenerate
    full = np.linalg.norm(y - project(b, y))
    assert residual == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("kind", ["intp", "masked", "int32", "list"])
def test_solver_keeps_a_private_read_only_pattern(kind):
    # The solver's pattern is read-only for good, so an oracle may keep
    # it; the caller's array is neither frozen nor shared, and a pattern
    # passed in is kept as it is.  A masked array converts to a view of
    # the caller's data.
    rows = np.array([0, 2, 3, 5], dtype=np.intp)
    given_omega = {"intp": rows, "masked": np.ma.masked_array(rows.copy()),
                   "int32": rows.astype(np.int32),
                   "list": rows.tolist()}[kind]
    basis = orthonormalize([np.ones(6)])
    solver = RestrictedSolver(basis, given_omega)
    assert not solver.omega.flags.writeable
    with pytest.raises(ValueError):
        solver.omega.flags.writeable = True
    np.testing.assert_array_equal(solver.omega, rows)
    if kind != "list":
        assert given_omega.flags.writeable
        given_omega[0] = 1
        assert solver.omega[0] == 0
    assert RestrictedSolver(basis, solver.omega).omega is solver.omega


@pytest.mark.parametrize("case", ["full-rank", "fewer-rows", "equal-rows"])
def test_solver_fit_matches_lstsq(case):
    gen = np.random.default_rng(11)
    b = random_basis(11, 10, 3)
    if case == "full-rank":
        omega = np.array([0, 2, 3, 5, 8])
    elif case == "fewer-rows":
        omega = np.array([1, 7])
    else:
        # Equal rows 4 and 6: B_omega has 3 = k rows but rank 2.
        raw = gen.standard_normal((10, 3))
        raw[6] = raw[4]
        b = orthonormalize(raw)
        omega = np.array([2, 4, 6])
    y = gen.standard_normal(omega.size)
    solver = RestrictedSolver(b, omega)
    coef, residual = solver.fit(y)
    a = b.matrix[omega, :]
    ref_coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=LSTSQ_RCOND)
    np.testing.assert_allclose(coef, ref_coef, rtol=0, atol=1e-12)
    assert residual == pytest.approx(np.linalg.norm(y - a @ ref_coef),
                                     rel=0, abs=1e-12)
    assert solver.degenerate == (rank < b.dim)
    assert solver.degenerate == (case != "full-rank")
    np.testing.assert_allclose(b.matrix @ coef, b.matrix @ ref_coef,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("make, message", [
    (lambda y: y.tolist(), None),
    (lambda y: y.astype(np.int64), None),
    (lambda y: y.astype(np.float32), None),
    (lambda y: y.astype(">f8"), None),
    (np.ma.masked_array, None),
    (lambda y: y[:4], "y_omega has length 4, expected 5"),
    (lambda y: y.tolist() + [0.0], "y_omega has length 6, expected 5"),
    (lambda y: y[:, None], "y_omega must be 1-dimensional"),
    (lambda y: y[None, :], "y_omega must be 1-dimensional"),
    (lambda y: y[0], "y_omega must be 1-dimensional"),
    (lambda y: 3.0, "y_omega must be 1-dimensional"),
], ids=["list", "int64", "float32", "big-endian", "masked", "short",
        "long-list", "column", "row", "0-d", "scalar"])
def test_solver_fit_reads_any_vector_as_its_float64_values(make, message):
    # Any vector input is read as its float64 values, so a fit of it
    # gives the float64 call's bits; anything that is not a vector of
    # the pattern's length is refused with the same message.
    b = random_basis(11, 10, 3)
    solver = RestrictedSolver(b, np.array([0, 2, 3, 5, 8]))
    y = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
    want_coef, want_residual = solver.fit(y)
    np.testing.assert_array_equal(y, [3.0, -1.0, 4.0, 1.0, -5.0])
    if message is None:
        coef, residual = solver.fit(make(y))
        assert coef.tobytes() == want_coef.tobytes()
        assert type(residual) is float and residual == want_residual
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solver.fit(make(y))


# ---------------------------------------------------------------------------
# reconstruction: the basis times a fit's coefficients
# ---------------------------------------------------------------------------

def test_reconstruct_axis():
    b = orthonormalize([e(0, 3)])
    solver = RestrictedSolver(b, [0])
    np.testing.assert_allclose(b.matrix @ solver.fit([7.0])[0],
                               [7.0, 0.0, 0.0])


def test_reconstruct_hand_value():
    # c = (y . u_omega) / ||u_omega||^2 with u_omega = (1,1)/sqrt(3).
    b = orthonormalize([np.ones(3)])
    solver = RestrictedSolver(b, [0, 1])
    got = b.matrix @ solver.fit([1.0, 0.0])[0]
    np.testing.assert_allclose(got, [0.5, 0.5, 0.5], atol=1e-12)


def test_reconstruct_exact_for_in_span_columns():
    gen = np.random.default_rng(5)
    b = random_basis(5, 12, 3)
    y = b.matrix @ gen.standard_normal(3)
    omega = np.sort(gen.choice(12, size=6, replace=False))
    solver = RestrictedSolver(b, omega)
    got = b.matrix @ solver.fit(y[omega])[0]
    np.testing.assert_allclose(got, y, atol=1e-9)


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def test_coherence_axis_attains_maximum():
    assert coherence(orthonormalize([e(0, 4)])) == pytest.approx(4.0)


def test_coherence_flat_vector_attains_minimum():
    assert coherence(orthonormalize([np.ones(4)])) == pytest.approx(1.0)


def test_coherence_mixed_basis():
    b = orthonormalize([e(0, 4), np.array([0.0, 1.0, 1.0, 0.0])])
    # Row norms squared: 1, 1/2, 1/2, 0; (4/2) * max = 2.
    assert coherence(b) == pytest.approx(2.0)


def test_coherence_empty_rejected():
    with pytest.raises(ValueError):
        coherence(OrthonormalBasis.empty(4))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_coherence_of_full_space_is_floored_at_one(m):
    # Every row of an m x m orthonormal basis has norm 1; rounding must not
    # put the coherence below its lower bound, singly or stacked.
    bases = [random_basis(seed, m, m).matrix for seed in range(40)]
    assert min(coherence(b) for b in bases) >= 1.0
    assert coherence(np.stack(bases)).min() >= 1.0


def test_vector_coherence_matches_subspace_coherence():
    gen = np.random.default_rng(9)
    z = gen.standard_normal(20)
    assert vector_coherence(z) == pytest.approx(
        coherence(orthonormalize([z])), abs=1e-12
    )


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

def test_vector_subspace_angle_basics():
    b1 = orthonormalize([e(0, 3)])
    b2 = orthonormalize([e(1, 3)])
    assert vector_subspace_angle(e(0, 3), b1) == pytest.approx(0.0, abs=1e-7)
    assert vector_subspace_angle(e(0, 3), b2) == pytest.approx(math.pi / 2)
    assert vector_subspace_angle(np.array([1.0, 1.0, 0.0]), b1) == (
        pytest.approx(math.pi / 4)
    )
    assert vector_subspace_angle(e(0, 3), OrthonormalBasis.empty(3)) == (
        pytest.approx(math.pi / 2)
    )


def test_vector_angle_zero_vector_rejected():
    with pytest.raises(ValueError):
        vector_subspace_angle(np.zeros(3), random_basis(0, 3, 1))
    with pytest.raises(ValueError):
        vector_vector_angle(np.zeros(3), e(0, 3))


def test_vector_vector_angle_is_acute():
    assert vector_vector_angle(e(0, 3), -e(0, 3)) == pytest.approx(0.0)
    assert vector_vector_angle(e(0, 3), e(1, 3)) == pytest.approx(math.pi / 2)


def test_subspace_angle_identical_and_orthogonal():
    u = orthonormalize([e(0, 4), e(1, 4)])
    v = orthonormalize([e(1, 4), e(2, 4)])
    w = orthonormalize([e(2, 4), e(3, 4)])
    assert subspace_subspace_angle(u, u) == pytest.approx(0.0, abs=1e-7)
    assert subspace_subspace_angle(u, w) == pytest.approx(math.pi / 2)
    # u and v share e1 only; largest principal angle is pi/2.
    assert subspace_subspace_angle(u, v) == pytest.approx(math.pi / 2)


def test_subspace_angle_one_dimensional_case():
    alpha = 0.3
    u = orthonormalize([np.array([math.cos(alpha), math.sin(alpha), 0.0])])
    v = orthonormalize([e(0, 3)])
    assert subspace_subspace_angle(u, v) == pytest.approx(alpha, abs=1e-9)


def test_subspace_angle_wider_into_narrower_is_right_angle():
    u = orthonormalize([e(0, 4), e(1, 4)])
    v = orthonormalize([e(0, 4)])
    assert subspace_subspace_angle(u, v) == pytest.approx(math.pi / 2)


def test_subspace_angle_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_subspace_angle(random_basis(0, 4, 1), random_basis(0, 5, 1))


# ---------------------------------------------------------------------------
# invariants (randomized)
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 24), k=st.integers(1, 8))
def test_projection_idempotent_and_pythagorean(seed, m, k):
    k = min(k, m)
    gen = np.random.default_rng(seed)
    b = orthonormalize(gen.standard_normal((m, k)))
    y = gen.standard_normal(m)
    p = project(b, y)
    assert np.linalg.norm(project(b, p) - p) <= 1e-9 * max(np.linalg.norm(y), 1.0)
    lhs = np.linalg.norm(y) ** 2
    rhs = np.linalg.norm(p) ** 2 + np.linalg.norm(y - p) ** 2
    assert abs(lhs - rhs) <= 1e-9 * lhs


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 30), k=st.integers(1, 10))
def test_coherence_within_bounds(seed, m, k):
    k = min(k, m)
    gen = np.random.default_rng(seed)
    b = orthonormalize(gen.standard_normal((m, k)))
    mu = coherence(b)
    assert 1.0 - 1e-12 <= mu <= m / b.dim + 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), m=st.integers(3, 20),
       kv=st.integers(2, 6), ku=st.integers(1, 6))
def test_angle_zero_iff_nested(seed, m, kv, ku):
    kv = min(kv, m - 1)
    ku = min(ku, kv)
    gen = np.random.default_rng(seed)
    v = orthonormalize(gen.standard_normal((m, kv)))
    # Nested: U drawn inside span(V) has angle 0 into V.
    u = orthonormalize(v.matrix @ gen.standard_normal((kv, ku)))
    assert subspace_subspace_angle(u, v) <= 1e-8
    # Not nested: tilt one direction of U out of span(V).
    w = gen.standard_normal(m)
    w -= project(v, w)
    if np.linalg.norm(w) > 1e-6:
        w /= np.linalg.norm(w)
        tilted = orthonormalize(
            [u.matrix[:, 0] + 0.1 * w] + [u.matrix[:, j] for j in range(1, ku)]
        )
        assert subspace_subspace_angle(tilted, v) > 1e-8


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 20), k=st.integers(1, 6))
def test_full_row_restriction_matches_full_residual(seed, m, k):
    k = min(k, m)
    gen = np.random.default_rng(seed)
    b = orthonormalize(gen.standard_normal((m, k)))
    y = gen.standard_normal(m)
    restricted = RestrictedSolver(b, np.arange(m)).fit(y)[1]
    full = np.linalg.norm(y - project(b, y))
    assert abs(restricted - full) <= 1e-9
