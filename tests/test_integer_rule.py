"""Every size, count, index and seed the package takes is held to one
rule, ``sampling._check_int``: an ``int`` or numpy integer at or above
its bound.  A bool or a float is refused with a ``ValueError`` that names
the parameter, never truncated, and before anything is drawn, read or
written."""

import enum
import re

import numpy as np
import pytest

from adaptive_mc.lrebn import (LrebnConfig, angle_increment,
                               theorem_error_bound, updated_budget)
from adaptive_mc.sampling import RngState, _check_int, sample_uniform_subset
from adaptive_mc.synthetic import (
    ObservationOracle,
    generate_low_rank,
    make_instance,
    save_instance,
)
from adaptive_mc.verify import run_check

_CFG = dict(epsilon=0.01, delta=0.05)

# (entry point, parameter name as its message names it, lowest valid
# value, call taking the value).  Each test gets a fresh oracle and an
# unused bundle directory in ``ctx``: a rejected call must charge no
# read to the one and write nothing into the other.
ENTRY_POINTS = [
    ("sample_uniform_subset", "m", 1,
     lambda v, ctx: sample_uniform_subset(v, 1, RngState(0))),
    ("sample_uniform_subset", "d", 1,
     lambda v, ctx: sample_uniform_subset(10, v, RngState(0))),
    ("generate_low_rank", "m", 1,
     lambda v, ctx: generate_low_rank(v, 5, 1, RngState(0))),
    ("generate_low_rank", "n", 1,
     lambda v, ctx: generate_low_rank(6, v, 1, RngState(0))),
    ("generate_low_rank", "r", 1,
     lambda v, ctx: generate_low_rank(6, 5, v, RngState(0))),
    ("generate_low_rank", "spike_index", 0,
     lambda v, ctx: generate_low_rank(6, 5, 1, RngState(0),
                                      coherence_mode="spiked",
                                      spike_index=v)),
    ("make_instance", "seed", 0,
     lambda v, ctx: make_instance(6, 5, 2, 0.01, v)),
    ("save_instance", "seed", 0,
     lambda v, ctx: save_instance(ctx["out"], ctx["inst"], v, "sphere")),
    ("RngState", "seed", 0, lambda v, ctx: RngState(v)),
    ("RngState", "stream label", 0, lambda v, ctx: RngState(0, v)),
    ("RngState.substream", "stream label", 0,
     lambda v, ctx: RngState(0, 1).substream(v)),
    ("LrebnConfig", "r", 1, lambda v, ctx: LrebnConfig(**_CFG, r=v)),
    ("LrebnConfig", "seed", 0,
     lambda v, ctx: LrebnConfig(**_CFG, r=2, seed=v)),
    ("updated_budget", "m", 1,
     lambda v, ctx: updated_budget(LrebnConfig(**_CFG, r=2), v, 0.0)),
    ("angle_increment", "k", 1,
     lambda v, ctx: angle_increment(0.0, 0.5, LrebnConfig(**_CFG, r=2), v)),
    ("theorem_error_bound", "m", 1,
     lambda v, ctx: theorem_error_bound(v, 1, 1, 0.01, 0.1)),
    ("theorem_error_bound", "d", 1,
     lambda v, ctx: theorem_error_bound(100, v, 1, 0.01, 0.1)),
    ("theorem_error_bound", "k", 0,
     lambda v, ctx: theorem_error_bound(100, 10, v, 0.01, 0.1)),
    ("run_check kcoh", "trials", 1,
     lambda v, ctx: run_check("kcoh", trials=v, seed=0)),
    ("run_check conc", "trials", 1,
     lambda v, ctx: run_check("conc", trials=v, seed=0)),
    ("run_check kcoh", "seed", 0,
     lambda v, ctx: run_check("kcoh", trials=3, seed=v)),
    ("check_conc", "d", 1,
     lambda v, ctx: run_check("conc", trials=3, seed=0, d=v)),
    ("check_ks14", "d", 1,
     lambda v, ctx: run_check("ks14", trials=3, seed=0, d=v)),
    ("check_kcoh", "m", 1,
     lambda v, ctx: run_check("kcoh", trials=3, seed=0, m=v, r=1, k=1)),
    ("check_kcoh", "r", 1,
     lambda v, ctx: run_check("kcoh", trials=3, seed=0, r=v, k=1)),
    ("check_kcoh", "k", 1,
     lambda v, ctx: run_check("kcoh", trials=3, seed=0, k=v)),
    ("check_noisycoh", "m", 2,
     lambda v, ctx: run_check("noisycoh", trials=3, seed=0, m=v, k=1)),
    ("check_noisycoh", "k", 1,
     lambda v, ctx: run_check("noisycoh", trials=3, seed=0, k=v)),
    ("check_blum", "m", 2,
     lambda v, ctx: run_check("blum", trials=3, seed=0, m=v, k=2)),
    ("check_blum", "k", 2,
     lambda v, ctx: run_check("blum", trials=3, seed=0, k=v)),
    ("check_conc", "m", 1,
     lambda v, ctx: run_check("conc", trials=3, seed=0, m=v, k=1)),
    ("check_conc", "k", 1,
     lambda v, ctx: run_check("conc", trials=3, seed=0, k=v)),
    ("check_ks14", "m", 1,
     lambda v, ctx: run_check("ks14", trials=3, seed=0, m=v, k=1)),
    ("check_ks14", "k", 1,
     lambda v, ctx: run_check("ks14", trials=3, seed=0, k=v)),
    ("check_ind", "k_max", 1,
     lambda v, ctx: run_check("ind", trials=3, seed=0, k_max=v)),
    ("check_matcher", "n_dim", 1,
     lambda v, ctx: run_check("matcher", trials=3, seed=0, n_dim=v, r=1)),
    ("check_matcher", "r", 1,
     lambda v, ctx: run_check("matcher", trials=3, seed=0, r=v)),
    ("check_matcher", "num_draws", 1,
     lambda v, ctx: run_check("matcher", trials=3, seed=0, num_draws=v)),
    ("check_ededler", "m", 1,
     lambda v, ctx: run_check("ededler", m_values=(40, v))),
    ("check_ededler", "r", 1,
     lambda v, ctx: run_check("ededler", r_values=(1, v))),
    ("ObservationOracle.entries", "j", 0,
     lambda v, ctx: ctx["oracle"].entries([0, 1], v)),
    ("ObservationOracle.entry", "j", 0,
     lambda v, ctx: ctx["oracle"].entry(0, v)),
    ("ObservationOracle.column", "j", 0,
     lambda v, ctx: ctx["oracle"].column(v)),
]

IDS = [f"{where}-{name}" for where, name, _, _ in ENTRY_POINTS]


@pytest.fixture
def ctx(tmp_path):
    return {"oracle": ObservationOracle(np.arange(12.0).reshape(4, 3)),
            "inst": make_instance(6, 5, 2, 0.01, 0),
            "out": tmp_path / "bundle"}


@pytest.mark.parametrize("kind, bad", [
    ("bool", True), ("float", 2.5), ("numpy-float", np.float64(2.0)),
    ("numpy-bool", np.bool_(True)), ("below-bound", None)])
@pytest.mark.parametrize("where, name, low, call", ENTRY_POINTS, ids=IDS)
def test_bad_integer_rejected_by_name_before_any_draw(
        monkeypatch, ctx, where, name, low, call, kind, bad):
    value = low - 1 if bad is None else bad

    def no_draws(self):
        raise AssertionError(f"{where} drew before validating")
    monkeypatch.setattr(RngState, "generator", no_draws)
    with pytest.raises(ValueError) as info:
        call(value, ctx)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
    assert ctx["oracle"].entry_count == 0
    assert not ctx["out"].exists()


@pytest.mark.parametrize("where, name, low, call", ENTRY_POINTS, ids=IDS)
def test_numpy_integer_accepted(ctx, where, name, low, call):
    call(np.int32(low + 1), ctx)


class _Int(int):
    pass


class _Size(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("value, low, want", [
    (3, 1, 3), (0, 0, 0), (2**70, 1, 2**70), (_Int(3), 1, 3),
    (_Size.THREE, 1, 3), (np.int64(3), 1, 3), (np.uint8(0), 0, 0),
    (0, 1, "n must be a positive integer; got 0"),
    (-1, 0, "n must be a non-negative integer; got -1"),
    (-2**70, 0, f"n must be a non-negative integer; got {-2**70}"),
    (_Int(0), 1, "n must be a positive integer; got 0"),
    (np.int8(-1), 0, "n must be a non-negative integer; got -1"),
    (True, 0, "n must be an integer; got True"),
    (np.True_, 0, f"n must be an integer; got {np.True_!r}"),
], ids=["int", "zero", "2**70", "int-subclass", "IntEnum", "int64", "uint8",
        "zero-below-1", "negative", "-2**70", "int-subclass-below",
        "int8-below", "True", "np.True_"])
def test_check_int_returns_a_python_int_or_refuses(value, low, want):
    # An integer at or above ``low`` comes back as a Python int of its
    # value, whatever its integer type; anything else is refused with the
    # rule's message.
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            _check_int("n", value, low)
    else:
        got = _check_int("n", value, low)
        assert type(got) is int and got == want


def test_numpy_integer_seed_and_labels_keep_the_stream():
    state = RngState(np.int64(5), np.uint8(3))
    assert (type(state.seed), state.stream) == (int, (3,))
    assert (state.generator().integers(1 << 30)
            == RngState(5, 3).generator().integers(1 << 30))
    a = make_instance(6, 5, 2, 0.01, np.int16(4))
    np.testing.assert_array_equal(a.M, make_instance(6, 5, 2, 0.01, 4).M)
