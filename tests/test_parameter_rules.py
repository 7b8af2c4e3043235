"""Every real number, flag and named mode the package takes is held to one
rule of its kind: ``sampling._check_real`` for a real number (a Python
float inside a stated range), ``LrebnConfig``'s flag check for a switch
(a bool or numpy bool) and ``sampling._check_mode`` for a mode (a str in
the owning module's tuple).  A value of the wrong kind or outside the
range is refused with a ``ValueError`` that names the parameter, never
converted, and before anything is drawn, read or written.  The harness
is ``test_integer_rule.py``'s.  A matrix of reals (the oracle's hidden
matrix, ``recovery_errors``' reference) is held to
``sampling._check_real_matrix``: an integer or floating dtype."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from adaptive_mc.lrebn import (LrebnConfig, angle_increment,
                               recovery_errors, run_lrebn,
                               theorem_error_bound, updated_budget)
from adaptive_mc.sampling import RngState
from adaptive_mc.synthetic import (
    ObservationOracle,
    add_bounded_noise,
    generate_low_rank,
    make_instance,
    save_instance,
)
from adaptive_mc.verify import run_check

_CFG = dict(epsilon=0.01, delta=0.05, r=2)


def _config(**kw):
    return LrebnConfig(**dict(_CFG, **kw))


def _noise(ctx, epsilon=0.01, mode="sphere"):
    inst = ctx["inst"]
    return add_bounded_noise(inst.L, epsilon, RngState(0), inst.true_basis,
                             mode=mode)


# (entry point, parameter name as its message names it, kind, a valid
# value, values past the ends of a real's range, call taking the value).
# Each test gets a fresh oracle and an unused bundle directory in ``ctx``:
# a rejected call must charge no read to the one and write nothing into
# the other.
ENTRY_POINTS = [
    ("LrebnConfig", "epsilon", "real", 0.01, (-0.01, 0.25),
     lambda v, ctx: _config(epsilon=v)),
    ("LrebnConfig", "delta", "real", 0.05, (0.0, 0.1),
     lambda v, ctx: _config(delta=v)),
    ("LrebnConfig", "mu_upper", "real", 2.0, (0.5, math.inf),
     lambda v, ctx: _config(mu_upper=v)),
    ("LrebnConfig", "budget_cap_to_m", "flag", False, (),
     lambda v, ctx: _config(budget_cap_to_m=v)),
    ("LrebnConfig", "estimate_mu", "flag", True, (),
     lambda v, ctx: _config(estimate_mu=v)),
    ("LrebnConfig", "omega_redraw", "mode", "per-column", (),
     lambda v, ctx: _config(omega_redraw=v)),
    ("updated_budget", "theta_tilde", "real", 0.5, (-0.1, 2.0),
     lambda v, ctx: updated_budget(_config(), 100, v)),
    ("angle_increment", "theta_tilde_prev", "real", 0.1, (-1.0, 2.0),
     lambda v, ctx: angle_increment(v, 0.5, _config(), 2)),
    ("angle_increment", "theta_new_col", "real", 0.5, (-0.1, 2.0),
     lambda v, ctx: angle_increment(0.1, v, _config(), 2)),
    ("theorem_error_bound", "epsilon", "real", 0.1, (-0.5, 0.3),
     lambda v, ctx: theorem_error_bound(100, 10, 1, v, 0.1)),
    ("theorem_error_bound", "theta_tilde", "real", 0.1, (-0.1, 2.0),
     lambda v, ctx: theorem_error_bound(100, 10, 1, 0.1, v)),
    ("generate_low_rank", "spike_weight", "real", 0.5, (-0.1, 1.1),
     lambda v, ctx: generate_low_rank(6, 5, 1, RngState(0),
                                      coherence_mode="spiked",
                                      spike_weight=v)),
    ("generate_low_rank", "coherence_mode", "mode", "spiked", (),
     lambda v, ctx: generate_low_rank(6, 5, 1, RngState(0),
                                      coherence_mode=v)),
    ("add_bounded_noise", "epsilon", "real", 0.01, (-0.01, 0.25),
     lambda v, ctx: _noise(ctx, epsilon=v)),
    ("add_bounded_noise", "mode", "mode", "scaled-gaussian", (),
     lambda v, ctx: _noise(ctx, mode=v)),
    ("make_instance", "epsilon", "real", 0.01, (-0.01, 0.25),
     lambda v, ctx: make_instance(6, 5, 2, v, 0)),
    ("make_instance", "noise_mode", "mode", "scaled-gaussian", (),
     lambda v, ctx: make_instance(6, 5, 2, 0.01, 0, noise_mode=v)),
    ("make_instance", "coherence_mode", "mode", "spiked", (),
     lambda v, ctx: make_instance(6, 5, 2, 0.01, 0, coherence_mode=v)),
    ("save_instance", "noise_mode", "mode", "scaled-gaussian", (),
     lambda v, ctx: save_instance(ctx["out"], ctx["inst"], 0, v)),
    ("save_instance", "coherence_mode", "mode", "spiked", (),
     lambda v, ctx: save_instance(ctx["out"], ctx["inst"], 0, "sphere", v)),
    ("check_noisycoh", "theta_max", "real", 0.3, (0.0, math.pi / 2),
     lambda v, ctx: run_check("noisycoh", trials=3, seed=0, theta_max=v)),
    ("check_ind", "epsilon", "real", 0.01, (0.0, math.inf),
     lambda v, ctx: run_check("ind", trials=3, seed=0, epsilon=v)),
    ("check_conc", "epsilon", "real", 0.01, (-0.01, 0.25),
     lambda v, ctx: run_check("conc", trials=3, seed=0, epsilon=v)),
    ("check_conc", "delta", "real", 0.05, (0.0, 1.0),
     lambda v, ctx: run_check("conc", trials=3, seed=0, delta=v)),
    ("check_ks14", "delta", "real", 0.05, (0.0, 1.0),
     lambda v, ctx: run_check("ks14", trials=3, seed=0, delta=v)),
    ("check_ededler", "delta", "real", 0.05, (0.0, 1.0),
     lambda v, ctx: run_check("ededler", delta_values=(0.01, v))),
    ("check_matcher", "epsilon_chern", "real", 0.5, (-0.1, 1.0),
     lambda v, ctx: run_check("matcher", trials=3, seed=0,
                              epsilon_chern=v)),
    ("check_matcher", "L_bound", "real", 0.5, (0.0, math.inf),
     lambda v, ctx: run_check("matcher", trials=3, seed=0, L_bound=v)),
]

# Values of the wrong kind, per kind.  A real refuses whatever would only
# convert to a number; a flag whatever is merely truthy or falsy; a mode
# anything but one of its names.
WRONG_KIND = {
    "real": [("bool", True), ("numpy-bool", np.bool_(False)),
             ("str", "0.05"), ("none", None), ("complex", 0.05 + 0j),
             ("nan", math.nan)],
    "flag": [("str", "False"), ("none", None), ("int", 1), ("float", 0.0),
             ("complex", 1j), ("nan", math.nan)],
    "mode": [("unknown", "bogus"), ("none", None), ("bool", True),
             ("bytes", b"sphere"), ("list", ["sphere"]), ("nan", math.nan)],
}

# matcher's ``L_bound=None`` is valid: it leaves the rows unscaled.
BAD = [
    pytest.param(where, name, call, bad, id=f"{where}-{name}-{label}")
    for where, name, kind, _, outside, call in ENTRY_POINTS
    for label, bad in WRONG_KIND[kind] + [
        (f"past-end-{v}", v) for v in outside]
    if not (name == "L_bound" and bad is None)
]

NUMPY_KIND = {"real": np.float32, "flag": np.bool_, "mode": np.str_}


@pytest.fixture
def ctx(tmp_path):
    return {"oracle": ObservationOracle(np.arange(12.0).reshape(4, 3)),
            "inst": make_instance(6, 5, 2, 0.01, 0),
            "out": tmp_path / "bundle"}


@pytest.mark.parametrize("where, name, call, bad", BAD)
def test_bad_value_rejected_by_name_before_any_work(
        monkeypatch, ctx, where, name, call, bad):
    def no_draws(self):
        raise AssertionError(f"{where} drew before validating")
    monkeypatch.setattr(RngState, "generator", no_draws)
    with pytest.raises(ValueError) as info:
        call(bad, ctx)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
    assert ctx["oracle"].entry_count == 0
    assert not ctx["out"].exists()


@pytest.mark.parametrize(
    "where, name, kind, good, call",
    [entry[:4] + entry[5:] for entry in ENTRY_POINTS],
    ids=[f"{where}-{name}" for where, name, *_ in ENTRY_POINTS])
def test_numpy_value_accepted(ctx, where, name, kind, good, call):
    call(NUMPY_KIND[kind](good), ctx)


def test_int_past_the_float_range_is_out_of_range():
    with pytest.raises(ValueError, match="delta must satisfy .* got inf"):
        _config(delta=10 ** 400)
    with pytest.raises(ValueError, match="epsilon must be < 0.25"):
        _config(epsilon=-10 ** 400)


def test_config_holds_what_each_check_returns():
    cfg = LrebnConfig(epsilon=np.float32(0.01), delta=np.float64(0.05),
                      r=np.int64(2), mu_upper=np.int32(2),
                      budget_cap_to_m=np.bool_(False),
                      estimate_mu=np.bool_(False),
                      omega_redraw=np.str_("per-column"), seed=np.uint16(3))
    assert {f.name: type(getattr(cfg, f.name))
            for f in dataclasses.fields(cfg)} == {
        "epsilon": float, "delta": float, "r": int, "mu_upper": float,
        "budget_cap_to_m": bool, "estimate_mu": bool,
        "omega_redraw": str, "seed": int}
    assert cfg.epsilon == float(np.float32(0.01))
    assert (cfg.mu_upper, cfg.budget_cap_to_m) == (2.0, False)


def test_float32_epsilon_gives_python_float_thresholds():
    inst = make_instance(40, 30, 2, 0.01, 1)
    result = run_lrebn(ObservationOracle(inst.M),
                       _config(epsilon=np.float32(0.01)))
    assert {type(rec.threshold) for rec in result.column_records} == {float}


def test_estimate_mu_text_is_refused_not_read_as_true():
    # A non-empty str is truthy: "False" once switched the heuristic on,
    # and the mu trace of this run read [1.0, 7.85, 11.53].
    with pytest.raises(ValueError,
                       match="estimate_mu must be a bool; got 'False'"):
        _config(estimate_mu="False")
    inst = make_instance(200, 50, 2, 0.01, 1)
    result = run_lrebn(ObservationOracle(inst.M),
                       _config(estimate_mu=np.bool_(False)))
    assert [ev.mu for ev in result.budget_trace] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("bad", [math.nan, -1.0, 2.0])
def test_angle_increment_checks_its_angles_at_zero_noise(bad):
    # At epsilon = 0 the estimate is returned as it is, so the angles are
    # checked before that branch.
    cfg = _config(epsilon=0.0)
    with pytest.raises(ValueError, match=r"\btheta_tilde_prev\b"):
        angle_increment(bad, 0.5, cfg, 2)
    with pytest.raises(ValueError, match=r"\btheta_new_col\b"):
        angle_increment(0.0, bad, cfg, 2)


# A matrix of each dtype, built from one 200 x 100 float matrix (or its
# entries' indices, for datetime64), and whether the matrix rule takes it.
_REAL = np.random.default_rng(3).standard_normal((200, 100))
MATRIX_DTYPES = [
    ("bool", _REAL > 0, False),
    ("complex", _REAL + 1j, False),
    ("str", _REAL.astype(str), False),
    ("bytes", _REAL.astype("S24"), False),
    ("object", _REAL.astype(object), False),
    ("datetime64",
     np.arange(_REAL.size).reshape(_REAL.shape).astype("datetime64[D]"),
     False),
    ("float32", _REAL.astype(np.float32), True),
    ("uint8", (_REAL * 40 + 128).clip(0, 255).astype(np.uint8), True),
    ("int64", (_REAL * 1e6).astype(np.int64), True),
]


@pytest.fixture(scope="module")
def real_result():
    return run_lrebn(ObservationOracle(_REAL), _config())


@pytest.mark.parametrize("name, call", [
    ("hidden matrix", lambda a, result: ObservationOracle(a)._hidden),
    ("reference matrix", lambda a, result: recovery_errors(result, a)),
], ids=["ObservationOracle", "recovery_errors"])
@pytest.mark.parametrize("dtype, a, taken", MATRIX_DTYPES,
                         ids=[row[0] for row in MATRIX_DTYPES])
def test_matrix_dtype_taken_as_float64_or_refused_before_a_copy(
        real_result, name, call, dtype, a, taken):
    if taken:
        got = call(a, real_result)
        want = call(a.astype(np.float64), real_result)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        return
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must have an integer or floating dtype; "
                f"got {a.dtype}")):
            call(a, real_result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A float64 copy of the matrix would take 160,000 bytes.
    assert peak < 8 * _REAL.size // 4, peak
