import threading

import pytest

from adaptive_mc import cli, synthetic
from adaptive_mc.linalg import coherence
from adaptive_mc.lrebn import LrebnConfig, recovery_errors, run_lrebn
from adaptive_mc.sampling import RngState
from adaptive_mc.synthetic import ObservationOracle, load_instance, make_instance
from adaptive_mc.verify import CheckReport


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_bundle(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = cli.main(["generate", "--m", "60", "--n", "80", "--r", "4",
                   "--epsilon", "0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "L.mat").exists() and (out / "M.mat").exists()
    meta = (out / "meta").read_text()
    assert "epsilon=0" in meta
    printed = capsys.readouterr().out
    assert printed.startswith("coherence=")


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cli.main(["generate", "--m", "30", "--n", "20", "--r", "2",
                  "--epsilon", "0.01", "--seed", "9", "--out", str(out)])
    assert (a / "L.mat").read_bytes() == (b / "L.mat").read_bytes()
    assert (a / "M.mat").read_bytes() == (b / "M.mat").read_bytes()


def test_generate_rejects_model_epsilon(tmp_path, capsys):
    rc = cli.main(["generate", "--m", "10", "--n", "10", "--r", "2",
                   "--epsilon", "0.3", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "epsilon must be < 0.25" in err
    assert "Traceback" not in err


def test_generate_rejects_negative_epsilon(tmp_path, capsys):
    out = tmp_path / "x"
    rc = cli.main(["generate", "--m", "10", "--n", "10", "--r", "2",
                   "--epsilon", "-0.01", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: epsilon must be < 0.25 and non-negative "
                   "(bounded-noise model precondition); got -0.01\n")
    assert not out.exists()


def test_generate_rejects_nan_epsilon(tmp_path, capsys):
    out = tmp_path / "x"
    rc = cli.main(["generate", "--m", "10", "--n", "10", "--r", "2",
                   "--epsilon", "nan", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon must be < 0.25")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.3", "nan"])
def test_generate_rejects_epsilon_before_building_L(
        tmp_path, capsys, monkeypatch, value):
    calls = []
    monkeypatch.setattr(synthetic, "generate_low_rank",
                        lambda *a, **kw: calls.append(a))
    out = tmp_path / "x"
    rc = cli.main(["generate", "--m", "40", "--n", "40", "--r", "2",
                   "--epsilon", value, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: epsilon must be < 0.25")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "5", "-1"])
def test_generate_rejects_bad_spike_weight(tmp_path, capsys, value):
    out = tmp_path / "bad"
    rc = cli.main(["generate", "--m", "30", "--n", "20", "--r", "2",
                   "--epsilon", "0", "--coherence-mode", "spiked",
                   f"--spike-weight={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "spike_weight" in err
    assert "Traceback" not in err
    assert not (out / "meta").exists()


def test_generate_accepts_spike_weight_in_range(tmp_path):
    out = tmp_path / "inst"
    rc = cli.main(["generate", "--m", "30", "--n", "20", "--r", "2",
                   "--epsilon", "0", "--coherence-mode", "spiked",
                   "--spike-weight", "0.99", "--out", str(out)])
    assert rc == 0
    assert "coherence_mode=spiked" in (out / "meta").read_text()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@pytest.fixture()
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    cli.main(["generate", "--m", "60", "--n", "80", "--r", "4",
              "--epsilon", "0", "--seed", "1", "--out", str(out)])
    return out


def test_run_noiseless_summary(instance_dir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["run", "--instance", str(instance_dir), "--delta", "0.05",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    (summary,) = read_csv(out / "summary.csv")
    assert float(summary["max_col_error"]) <= 1e-8
    assert summary["k_final"] == "4"
    assert summary["bound_violations"] == "0"
    rows = read_csv(out / "results.csv")
    assert len(rows) == 80
    assert {r["mode"] for r in rows} == {"FullyObserved", "Reconstructed"}
    manifest = (out / "manifest").read_text()
    assert "omega_redraw_policy=on-update" in manifest
    assert "delta=0.05" in manifest


def test_run_rejects_large_delta(instance_dir, tmp_path, capsys):
    rc = cli.main(["run", "--instance", str(instance_dir), "--delta", "0.2",
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "delta" in err
    assert "Traceback" not in err


def test_run_rejects_nan_delta(instance_dir, tmp_path, capsys):
    out = tmp_path / "x"
    rc = cli.main(["run", "--instance", str(instance_dir), "--delta", "nan",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta must satisfy")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_missing_instance_errors(tmp_path, capsys):
    rc = cli.main(["run", "--instance", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_run_rejects_non_finite_reference(tmp_path, capsys, bad):
    inst = tmp_path / "inst"
    cli.main(["generate", "--m", "30", "--n", "20", "--r", "2",
              "--epsilon", "0.01", "--seed", "2", "--out", str(inst)])
    L = synthetic.read_matrix(inst / "L.mat")
    L[7, 11] = bad
    synthetic.write_matrix(inst / "L.mat", L)
    capsys.readouterr()
    out = tmp_path / "run"
    rc = cli.main(["run", "--instance", str(inst), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "column error is not finite" in err
    assert "Traceback" not in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["generate", "--m", "6", "--n", "5", "--r", "1",
                  "--epsilon", "0", "--out", "{file}"], id="generate-out"),
    pytest.param(["run", "--instance", "{file}", "--out", "{tmp}/run"],
                 id="run-instance"),
    pytest.param(["run", "--instance", "{inst}", "--out", "{file}"],
                 id="run-out"),
    pytest.param(["sweep", "--m", "6", "--n", "5", "--r", "1",
                  "--epsilon", "0", "--out", "{file}"], id="sweep-out"),
    pytest.param(["verify", "--names", "ind", "--trials", "2",
                  "--out", "{file}"], id="verify-out"),
])
def test_os_error_prints_one_error_line(tmp_path, capsys, argv):
    inst = tmp_path / "inst"
    cli.main(["generate", "--m", "6", "--n", "5", "--r", "1",
              "--epsilon", "0", "--out", str(inst)])
    regular = tmp_path / "regular"
    regular.write_text("keep\n")
    capsys.readouterr()
    rc = cli.main([a.format(file=regular, tmp=tmp_path, inst=inst)
                   for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert regular.read_text() == "keep\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["generate", "--m", "6", "--n", "5", "--r", "1",
                  "--epsilon", "0", "--out", "{file}"], id="generate"),
    pytest.param(["run", "--instance", "{tmp}/inst", "--out", "{file}"],
                 id="run"),
    pytest.param(["sweep", "--m", "6", "--n", "5", "--r", "1",
                  "--epsilon", "0", "--out", "{file}"], id="sweep"),
    pytest.param(["verify", "--names", "ind", "--out", "{file}"],
                 id="verify"),
])
def test_out_that_is_a_file_fails_before_any_work(tmp_path, capsys,
                                                   monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("make_instance", "_load_meta", "_sweep_cell",
                 "run_check"):
        monkeypatch.setattr(cli, name, never)
    regular = tmp_path / "regular"
    regular.write_text("keep\n")
    rc = cli.main([a.format(file=regular, tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {regular} exists and is not a directory\n"
    assert regular.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regular"]


def test_run_rerun_identical(instance_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cli.main(["run", "--instance", str(instance_dir), "--delta", "0.05",
                  "--seed", "7", "--out", str(out)])
        outs.append(out)
    for fname in ("results.csv", "summary.csv", "manifest"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_run_estimate_mu_starts_from_floor(instance_dir, tmp_path):
    out = tmp_path / "est"
    rc = cli.main(["run", "--instance", str(instance_dir), "--delta", "0.05",
                   "--estimate-mu", "--seed", "3", "--out", str(out)])
    assert rc == 0
    manifest = (out / "manifest").read_text()
    assert "mu_upper=1\n" in manifest
    assert "estimate_mu=true" in manifest
    (summary,) = read_csv(out / "summary.csv")
    assert summary["k_final"] == "4"


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0.5"])
def test_run_rejects_bad_mu_upper(instance_dir, tmp_path, capsys, value):
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir),
                   f"--mu-upper={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "mu_upper" in err
    assert "Traceback" not in err
    assert not (out / "manifest").exists()


@pytest.mark.parametrize("flag, name", [("--delta", "delta"),
                                        ("--mu-upper", "mu_upper")])
def test_run_refuses_a_bad_flag_before_parsing_a_matrix(
        instance_dir, tmp_path, capsys, flag, name):
    (instance_dir / "L.mat").write_text("not a matrix\n")
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), flag, "0.5",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must satisfy"), err
    assert not out.exists()


def _rewrite_meta(instance_dir, key, value=None):
    """Drop ``key`` from the bundle's meta, or set it to ``value``."""
    path = instance_dir / "meta"
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    if value is not None:
        lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n")


def _append_meta(instance_dir, line):
    with open(instance_dir / "meta", "a") as fh:
        fh.write(line + "\n")


@pytest.mark.parametrize("key, value, message", [
    pytest.param("r", None, "missing key 'r'", id="r"),
    pytest.param("epsilon", None, "missing key 'epsilon'", id="epsilon"),
    pytest.param("r", "2.5", "r must be an integer; got '2.5'", id="r-2.5"),
    pytest.param("epsilon", "abc", "epsilon must be a number; got 'abc'",
                 id="epsilon-abc"),
    pytest.param("mu", "abc", "mu must be a number; got 'abc'", id="mu-abc"),
    pytest.param("n", "80.0", "n must be an integer; got '80.0'",
                 id="n-80.0"),
])
def test_run_rejects_meta_without_key(instance_dir, tmp_path, capsys, key,
                                      value, message):
    """A missing or unparsable meta value is named with its file and key."""
    _rewrite_meta(instance_dir, key, value)
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {instance_dir / 'meta'}: {message}\n", err
    assert not (out / "manifest").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: _append_meta(d, "m=5"), "key 'm' appears twice"),
    (lambda d: _append_meta(d, "r=4"), "key 'r' appears twice"),
    (lambda d: _append_meta(d, "garbage line"),
     "line 'garbage line' is not key=value"),
    (lambda d: _rewrite_meta(d, "m", "5"), "m=5 but the matrices are 60x80"),
    (lambda d: _rewrite_meta(d, "n", "79"),
     "n=79 but the matrices are 60x80"),
], ids=["repeated-m", "repeated-r-same-value", "no-equals", "m-mismatch",
        "n-mismatch"])
def test_run_rejects_meta_breaking_a_rule(instance_dir, tmp_path, capsys,
                                          edit, message):
    """Each meta key has one owner: one line, agreeing with the matrices."""
    edit(instance_dir)
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {instance_dir / 'meta'}: {message}\n", err
    assert not (out / "manifest").exists()


@pytest.mark.parametrize("value", ["nan", "0.5", "-5"])
def test_run_rejects_bad_stored_mu(instance_dir, tmp_path, capsys, value):
    _rewrite_meta(instance_dir, "mu", value)
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "mu_upper" in err
    assert "Traceback" not in err
    assert not (out / "manifest").exists()


def test_run_floors_stored_mu_rounded_below_one(instance_dir, tmp_path):
    _rewrite_meta(instance_dir, "mu", "0.9999999999999998")
    out = tmp_path / "run"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 0
    assert "mu_upper=1\n" in (out / "manifest").read_text()


@pytest.mark.parametrize("r", ["1000000000000000", "61", "0"])
def test_run_rejects_meta_rank_outside_shape(instance_dir, tmp_path, capsys,
                                             r):
    _rewrite_meta(instance_dir, "r", r)
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--delta", "0.001",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {instance_dir / 'meta'}: rank r must satisfy "
                   f"1 <= r <= 60 = min(m, n) with m = 60, n = 80; "
                   f"got {r}\n"), err
    assert not (out / "manifest").exists()


def test_run_rejects_bundle_with_mismatched_shapes(instance_dir, tmp_path,
                                                   capsys):
    M = synthetic.read_matrix(instance_dir / "M.mat")
    synthetic.write_matrix(instance_dir / "M.mat", M[:, :-1])
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "M.mat is 60x79" in err
    assert "Traceback" not in err
    assert not (out / "manifest").exists()


@pytest.mark.parametrize("index, edit", [
    (0, lambda line: "60 a"),
    (0, lambda line: "-1 80"),
    (2, lambda line: "1.0 x " * 40),
    (2, lambda line: line.rsplit(" ", 1)[0]),
], ids=["header", "negative-header", "token", "ragged"])
def test_run_names_a_corrupt_matrix_file(instance_dir, tmp_path, capsys,
                                         index, edit):
    path = instance_dir / "M.mat"
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bad"
    rc = cli.main(["run", "--instance", str(instance_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert not (out / "manifest").exists()


def test_run_is_thin_shell_over_library(instance_dir, tmp_path):
    out = tmp_path / "cli_run"
    cli.main(["run", "--instance", str(instance_dir), "--delta", "0.05",
              "--mu-upper", "2.5", "--seed", "11", "--out", str(out)])
    (summary,) = read_csv(out / "summary.csv")

    L, M, meta = load_instance(instance_dir)
    cfg = LrebnConfig(epsilon=float(meta["epsilon"]), delta=0.05,
                      r=int(meta["r"]), mu_upper=2.5, seed=11)
    result = run_lrebn(ObservationOracle(M), cfg)
    errors = recovery_errors(result, L)
    assert int(summary["observations"]) == result.observations
    assert int(summary["k_final"]) == result.k_final
    assert float(summary["max_col_error"]) == pytest.approx(errors.max())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_row_count_and_layout(tmp_path):
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--m", "40", "--n", "30", "--r", "2",
                   "--epsilon", "0,0.01,0.05", "--delta", "0.05",
                   "--trials", "20", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 60
    assert sorted({r["epsilon"] for r in rows}) == ["0", "0.01", "0.050000000000000003"]
    # Larger noise never reduces the average observation count.
    means = []
    for eps in ("0", "0.01", "0.050000000000000003"):
        obs = [int(r["observations"]) for r in rows if r["epsilon"] == eps]
        means.append(sum(obs) / len(obs))
    assert means[0] <= means[1] <= means[2]


def test_sweep_deterministic_under_threads(tmp_path, monkeypatch):
    args = ["sweep", "--m", "30", "--n", "20", "--r", "2",
            "--epsilon", "0,0.02", "--trials", "3", "--seed", "8"]
    monkeypatch.setenv("ADAPTIVE_MC_THREADS", "1")
    cli.main(args + ["--out", str(tmp_path / "serial")])
    monkeypatch.setenv("ADAPTIVE_MC_THREADS", "4")
    cli.main(args + ["--out", str(tmp_path / "parallel")])
    assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
        (tmp_path / "parallel" / "sweep.csv").read_bytes()
    )


def test_sweep_and_verify_run_on_calling_thread(tmp_path, monkeypatch):
    # The algorithm is sequential; sweep cells and verify checks run one
    # after another on the caller's thread, whatever the environment says.
    monkeypatch.setenv("ADAPTIVE_MC_THREADS", "2")
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_sweep_cell", recording(cli._sweep_cell))
    monkeypatch.setattr(cli, "run_check", recording(cli.run_check))
    assert cli.main(["sweep", "--m", "30", "--n", "20", "--r", "2",
                     "--epsilon", "0,0.02", "--trials", "2", "--seed", "8",
                     "--out", str(tmp_path / "sw")]) == 0
    assert cli.main(["verify", "--names", "kcoh,ind", "--trials", "30",
                     "--seed", "2", "--out", str(tmp_path / "v")]) == 0
    assert [name for name, _ in calls] == (
        ["_sweep_cell"] * 4 + ["run_check"] * 2)
    assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("ms,ns,rs,epsilons,deltas", [
    pytest.param("30", "20", "2", "0,0.3", "0.05", id="0,0.3-0.05"),
    pytest.param("30", "20", "2", "0", "0.05,0.2", id="0-0.05,0.2"),
    # The rank-vs-shape rule: r = 4 fits m = 60 but not m = 3.
    pytest.param("60,3", "80", "4", "0", "0.05", id="m60,3-r4"),
])
def test_sweep_rejects_bad_list_value_before_any_cell(
        tmp_path, monkeypatch, capsys, ms, ns, rs, epsilons, deltas):
    calls = []
    monkeypatch.setattr(cli, "_sweep_cell", lambda *a: calls.append(a))
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--m", ms, "--n", ns, "--r", rs,
                   "--epsilon", epsilons, "--delta", deltas,
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert calls == []
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("flag, value", [("--m", ","), ("--epsilon", "")])
def test_sweep_rejects_a_list_with_no_value(tmp_path, monkeypatch, capsys,
                                            flag, value):
    calls = []
    monkeypatch.setattr(cli, "_sweep_cell", lambda *a: calls.append(a))
    argv = {"--m": "30", "--n": "20", "--r": "2", "--epsilon": "0"}
    argv[flag] = value
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", *(x for kv in argv.items() for x in kv),
                  "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: the list holds no value" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    pytest.param(["generate", "--m", "0", "--n", "5", "--r", "1",
                  "--epsilon", "0"], "m", id="generate-m"),
    pytest.param(["generate", "--m", "6", "--n", "5", "--r", "1",
                  "--epsilon", "0", "--seed", "-1"], "seed",
                 id="generate-seed"),
    pytest.param(["sweep", "--m", "60,0", "--n", "80", "--r", "4",
                  "--epsilon", "0"], "m", id="sweep-m"),
    pytest.param(["sweep", "--m", "30", "--n", "20", "--r", "2",
                  "--epsilon", "0", "--trials", "0"], "trials",
                 id="sweep-trials"),
    pytest.param(["verify", "--names", "ind", "--trials", "0"], "trials",
                 id="verify-trials"),
])
def test_bad_integer_is_one_library_error_line(tmp_path, monkeypatch, capsys,
                                               argv, name):
    """Sizes, counts and seeds are checked by the library, like --epsilon:
    one error line naming the parameter, exit 2, nothing written."""
    calls = []
    monkeypatch.setattr(cli, "_sweep_cell", lambda *a: calls.append(a))
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"error: {name} must be a "), err
    assert err.count("\n") == 1, err
    assert "usage" not in err and "Traceback" not in err
    assert captured.out == ""
    assert calls == []
    assert not out.exists()


def test_sweep_runs_full_rank_cells(tmp_path):
    # At r = m the true basis spans the whole space: its coherence is 1,
    # which rounding in the row norms must not take below 1.
    for seed in range(8):
        out = tmp_path / f"sw{seed}"
        assert cli.main(["sweep", "--m", "3", "--n", "5", "--r", "3",
                         "--epsilon", "0", "--trials", "5",
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert len(read_csv(out / "sweep.csv")) == 5


def test_single_cell_sweep_matches_library(tmp_path):
    out = tmp_path / "sw1"
    cli.main(["sweep", "--m", "40", "--n", "30", "--r", "3",
              "--epsilon", "0.01", "--delta", "0.05", "--trials", "1",
              "--seed", "4", "--out", str(out)])
    (row,) = read_csv(out / "sweep.csv")

    inst = make_instance(40, 30, 3, 0.01,
                         RngState(4, cli._STREAM_SWEEP_INSTANCE, 0, 0))
    cfg = LrebnConfig(
        epsilon=0.01, delta=0.05, r=3, mu_upper=coherence(inst.true_basis),
        seed=RngState(4, cli._STREAM_SWEEP_RUN, 0, 0).derived_seed(),
    )
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert int(row["observations"]) == result.observations
    assert int(row["k_final"]) == result.k_final
    assert float(row["max_col_error"]) == pytest.approx(
        recovery_errors(result, inst.L).max()
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_names(tmp_path):
    out = tmp_path / "v"
    rc = cli.main(["verify", "--names", "all", "--trials", "30",
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "verify.csv")
    assert len(rows) == 8
    assert all(r["verdict"] in ("PASS", "N/A") for r in rows)
    assert all("," not in r["params_json"] for r in rows)


def test_verify_single_check_stdout(capsys):
    rc = cli.main(["verify", "--names", "ind", "--trials", "1000",
                   "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,trials,")
    assert lines[1].startswith("ind,1000,0,")
    assert lines[1].endswith("PASS")


def test_verify_unknown_name(capsys):
    rc = cli.main(["verify", "--names", "bogus"])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_rejects_empty_name_list(tmp_path, capsys):
    out = tmp_path / "v"
    rc = cli.main(["verify", "--names", ",", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no check" in err
    assert "Traceback" not in err
    assert not (out / "verify.csv").exists()


def test_verify_exit_codes_follow_verdicts(monkeypatch, capsys):
    def fake_run_check(name, trials=None, seed=0):
        return CheckReport(name, 10, 0, 0.0, denominator=0,
                           not_applicable=True)

    monkeypatch.setattr(cli, "run_check", fake_run_check)
    assert cli.main(["verify", "--names", "ks14"]) == 0
    capsys.readouterr()

    def failing_run_check(name, trials=None, seed=0):
        return CheckReport(name, 10, 5, -1.0, denominator=10)

    monkeypatch.setattr(cli, "run_check", failing_run_check)
    assert cli.main(["verify", "--names", "kcoh"]) == 1


def test_verify_rerun_identical(tmp_path):
    for name in ("v1", "v2"):
        cli.main(["verify", "--names", "kcoh,ind", "--trials", "50",
                  "--seed", "3", "--out", str(tmp_path / name)])
    assert (tmp_path / "v1" / "verify.csv").read_bytes() == (
        (tmp_path / "v2" / "verify.csv").read_bytes()
    )
