import math

import numpy as np
import pytest

from equifd import AdaptiveConfig, ConstantMonitor, ProblemSpec, equidistribute, uniform_grid
from equifd.cli import main
from equifd.io import format_value, read_csv, write_csv


def test_float_formatting_roundtrips():
    rng = np.random.default_rng(99)
    values = np.concatenate([
        rng.uniform(-1e6, 1e6, 50),
        rng.uniform(-1e-12, 1e-12, 50),
        [0.0, 1.0, np.pi, 4.539993e-5],
    ])
    for v in values:
        assert float(format_value(float(v))) == float(v)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(20)
    b = rng.uniform(1e-15, 1e15, 20)
    path = tmp_path / "data.csv"
    write_csv(path, ["a", "b"], [a, b])
    data = read_csv(path)
    assert np.array_equal(data["a"], a)
    assert np.array_equal(data["b"], b)
    # numpy integers are written as integers; ragged columns are refused
    write_csv(path, ["i"], [np.arange(3)])
    assert path.read_text().split() == ["i", "0", "1", "2"]
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [a, b[:-1]])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [a])


def test_solve_analytic_quarter(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--lambda", "10", "--ell", "1", "--n", "80",
               "--grid", "analytic", "--beta", "0.25", "--out", str(out)])
    assert rc == 0
    data = read_csv(out)
    assert np.max(data["abs_error"]) == pytest.approx(0.342e-8, rel=0.05)
    assert "max error" in capsys.readouterr().out


def test_solve_uniform(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--lambda", "10", "--n", "80", "--grid", "uniform",
               "--out", str(out)])
    assert rc == 0
    assert np.max(read_csv(out)["abs_error"]) == pytest.approx(0.239e-3, rel=0.02)


def test_solve_rejects_lambda_zero(tmp_path, capsys):
    rc = main(["solve", "--lambda", "0.0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "lam" in capsys.readouterr().err
    rc = main(["solve", "--lambda", "inf", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "lam" in capsys.readouterr().err
    # lam**2 is past the double range
    rc = main(["solve", "--lambda", "1e200", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "lam" in capsys.readouterr().err


def test_solve_rejects_lambda_ell_overflow(tmp_path, capsys):
    """Both flags are in range, their product is not: a usage error."""
    rc = main(["solve", "--lambda", "1e15", "--ell", "1e300", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda 1e+15 and --ell 1e+300:") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_solve_rejects_unresolvable_layer(tmp_path, capsys):
    """The layer width 1/(beta*lam) is below ell's ulp: a usage error naming
    the three flags, with no warning and no traceback."""
    out = tmp_path / "x.csv"
    for command in (["solve", "--n", "20"], ["convergence"]):
        rc = main([*command, "--lambda", "1e-200", "--ell", "1e300", "--grid", "analytic",
                   "--beta", "0.25", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lambda 1e-200, --ell 1e+300 and --beta 0.25:")
        assert "Traceback" not in err
        assert not out.exists()


def test_solve_rejects_underflowing_scheme(tmp_path, capsys):
    """lam**2 and 1/h**2 both underflow, so the scheme's rows are zero."""
    rc = main(["solve", "--lambda", "1e-310", "--ell", "1e300", "--n", "20",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "lam=1e-310, ell=1e+300, n_cells=20" in err and "pivot" not in err


def test_solve_equidistributed_mode(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--grid", "equidistributed", "--beta", "0.25",
               "--n", "20", "--out", str(out)])
    assert rc == 0
    # the numerically equidistributed grid carries an O(h^2) gap to the
    # closed-form one, so the error lands near (not at) the analytic value
    assert np.max(read_csv(out)["abs_error"]) <= 2.0 * 0.883e-6


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--grid", "analytic", "--beta", "0.25",
               "--n-ladder", "10,20,40", "--out", str(out)])
    assert rc == 0
    data = read_csv(out)
    assert list(data["N"].astype(int)) == [10, 20, 40]
    assert data["p"][-1] == pytest.approx(4.0, abs=0.1)
    assert "beta=0.25" in capsys.readouterr().out


def test_convergence_rejects_bad_ladder(tmp_path, capsys):
    for ladder in ("20,10", "10,30", "10,x", "1,2"):
        rc = main(["convergence", "--n-ladder", ladder, "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "ladder" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    # sizes, caps and tolerances are checked by argparse, before any numerics
    for argv, flag in [
        (["solve", "--n", "1"], "--n"),
        (["solve", "--grid", "equidistributed", "--tol", "-1"], "--tol"),
        (["solve", "--grid", "adaptive", "--eps", "0"], "--eps"),
        (["adapt", "--alpha", "10", "--beta", "1", "--max-iter", "0"], "--max-iter"),
        (["adapt", "--alpha", "10", "--beta", "1", "--max-outer", "0"], "--max-outer"),
        (["table2", "--n", "1"], "--n"),
        (["error-profile", "--n", "0"], "--n"),
        # alpha and beta must be finite and >= 0 (NaN used to reach the numerics)
        (["adapt", "--alpha", "nan", "--beta", "1"], "--alpha"),
        (["adapt", "--alpha", "-1", "--beta", "1"], "--alpha"),
        (["adapt", "--alpha", "1", "--beta", "inf"], "--beta"),
        (["solve", "--grid", "analytic", "--beta", "inf"], "--beta"),
        (["solve", "--grid", "adaptive", "--alpha", "nan", "--beta", "0.25"], "--alpha"),
        (["convergence", "--grid", "analytic", "--beta", "nan"], "--beta"),
        # tolerances must be finite (`solve --tol inf` returned the uniform grid)
        (["solve", "--grid", "equidistributed", "--beta", "0.25", "--tol", "inf"], "--tol"),
        (["solve", "--grid", "adaptive", "--alpha", "10", "--beta", "0.25", "--eps", "inf"],
         "--eps"),
        (["adapt", "--alpha", "10", "--beta", "0.25", "--eps", "inf"], "--eps"),
        (["adapt", "--alpha", "10", "--beta", "0.25", "--tol", "inf"], "--tol"),
        (["table2", "--eps", "inf"], "--eps"),
    ]:
        rc = main([*argv, "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
    # an output path that cannot be written (here a directory)
    for argv in (["solve", "--out", str(tmp_path)],
                 ["adapt", "--alpha", "1", "--beta", "0.5", "--out", str(tmp_path / "s.csv"),
                  "--trace", str(tmp_path)]):
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_adapt_command_with_trace(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    trace = tmp_path / "trace.csv"
    rc = main(["adapt", "--alpha", "10", "--beta", "0.25", "--n", "20",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    assert np.max(read_csv(out)["abs_error"]) == pytest.approx(0.824e-4, rel=0.15)
    tr = read_csv(trace)
    assert list(tr) == ["n", "error_norm", "solution_change", "grid_change",
                        "inner_sweeps", "inner_stall", "relax"]
    assert not tr["inner_stall"].any()
    assert "inner stalls" not in capsys.readouterr().out
    # a swallowed inner stall is reported in the summary line and the trace
    rc = main(["adapt", "--alpha", "10", "--beta", "1", "--out", str(out),
               "--trace", str(trace)])
    assert rc == 0
    assert ", 1 inner stalls (converged)" in capsys.readouterr().out
    assert read_csv(trace)["inner_stall"].sum() == 1


def test_adapt_nonconverged_exit_code(tmp_path):
    rc = main(["adapt", "--alpha", "10", "--beta", "0.5", "--n", "20",
               "--max-outer", "2", "--out", str(tmp_path / "s.csv")])
    assert rc == 1


def test_table1_command(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    rc = main(["table1", "--out", str(out)])
    assert rc == 0
    data = read_csv(out)
    assert "error_uniform" in data and "error_b0_25" in data
    assert data["error_uniform"][1] == pytest.approx(0.375e-2, rel=0.02)
    # the finest fourth-order entry sits near the double-precision floor
    assert 0.5 * 0.836e-12 <= data["error_b0_25"][-1] <= 2.0 * 0.836e-12
    assert "uniform" in capsys.readouterr().out


def test_table2_command(tmp_path):
    out = tmp_path / "table2.csv"
    rc = main(["table2", "--out", str(out)])
    assert rc == 0
    data = read_csv(out)
    assert len(data["alpha"]) == 45
    assert np.all(data["converged"] == 1.0)


def test_error_profile_command(tmp_path):
    out = tmp_path / "profile.csv"
    rc = main(["error-profile", "--n", "80", "--out", str(out)])
    assert rc == 0
    data = read_csv(out)
    labels = data["monitor_label"]
    x = data["x"]
    err = data["abs_error"]

    def profile(tag):
        mask = labels == tag
        return x[mask], err[mask]

    # uniform error peaks in the layer; beta=2 starves the left part of
    # the domain of nodes, so its error peaks at the first interior node
    xu, eu = profile("uniform")
    assert xu[np.argmax(eu)] > 0.8
    x2, e2 = profile("beta=2")
    assert np.argmax(e2) == 1
    # the quarter-power grid beats every other family's peak error pointwise
    _, eq = profile("beta=0.25")
    for tag in ("uniform", "beta=0.5", "beta=2"):
        assert np.max(eq) <= np.max(profile(tag)[1])


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EQUIFD_OUTDIR", str(tmp_path))
    rc = main(["solve", "--n", "10"])
    assert rc == 0
    assert (tmp_path / "solution.csv").exists()


def test_config_file_prepopulates_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference run\nlambda = 10\nn = 80\ngrid = analytic\nbeta = 0.25\n")
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert np.max(read_csv(out)["abs_error"]) == pytest.approx(0.342e-8, rel=0.05)
    # a config may also supply the flags a command requires
    cfg.write_text("alpha = 10\nbeta = 0.25\n")
    ref = tmp_path / "ref.csv"
    assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["adapt", "--alpha", "10", "--beta", "0.25", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_config_file_flags_take_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 80\n")
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--config", str(cfg), "--n", "10", "--grid", "uniform",
               "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out)["x"]) == 11
    # a flag equal to its default still wins
    assert main(["solve", "--config", str(cfg), "--n", "20", "--out", str(out)]) == 0
    assert len(read_csv(out)["x"]) == 21
    # and so does a required one
    cfg.write_text("alpha = 1\n")
    ref = tmp_path / "ref.csv"
    assert main(["adapt", "--config", str(cfg), "--alpha", "10", "--beta", "0.25",
                 "--out", str(out)]) == 0
    assert main(["adapt", "--alpha", "10", "--beta", "0.25", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_config_file_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 20\nnot a pair\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert ":2:" in capsys.readouterr().err
    rc = main(["solve", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "missing.cfg" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path, capsys):
    # bad values go through argparse exactly like flags: exit 2, no traceback
    cfg = tmp_path / "bad.cfg"
    for line, flag in [("frobnicate = 1", "frobnicate"), ("n = 20.5", "--n"),
                       ("lambda = abc", "--lambda"), ("grid = bogus", "--grid"),
                       ("alp = 1", "alp")]:
        cfg.write_text(line + "\n")
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err


def _tiny_equidistribution(**kw):
    equidistribute(ConstantMonitor(), ProblemSpec(10.0, 1.0), 4, **kw)


# flag, its library parameter, a call that passes the value to that
# parameter, the bound, and the first invalid value next to the bound
# (None where the bound itself is invalid)
FLAG_PARAMETERS = [
    ("--n", "n_cells", lambda v: uniform_grid(ProblemSpec(10.0, 1.0), v), 2, 1),
    ("--max-iter", "max_iter", lambda v: _tiny_equidistribution(max_iter=v), 1, 0),
    ("--max-outer", "max_outer", lambda v: AdaptiveConfig(1.0, 0.5, max_outer=v), 1, 0),
    ("--tol", "tol", lambda v: _tiny_equidistribution(tol=v), None, 0.0),
    ("--eps", "eps", lambda v: AdaptiveConfig(1.0, 0.5, eps=v), None, 0.0),
    ("--alpha", "alpha", lambda v: AdaptiveConfig(v, 0.5), 0.0, -5e-324),
    ("--beta", "beta", lambda v: AdaptiveConfig(1.0, v), 0.0, -5e-324),
    ("--lambda", "lam", lambda v: ProblemSpec(v, 1.0), None, 1e200),
    ("--ell", "ell", lambda v: ProblemSpec(10.0, v), None, 0.0),
]


@pytest.mark.parametrize("flag,name,call,bound,invalid", FLAG_PARAMETERS,
                         ids=[row[0] for row in FLAG_PARAMETERS])
def test_flags_and_library_share_one_rule(tmp_path, capsys, flag, name, call, bound, invalid):
    """`adapt` takes every flag; --flag=value keeps argparse from reading -inf as an option."""
    argv = ["adapt", "--alpha", "0", "--beta", "0", "--n", "2", "--max-outer", "1",
            "--out", str(tmp_path / "s.csv")]
    for value in (math.nan, math.inf, -math.inf, invalid):
        text = repr(value)
        assert main([*argv, f"{flag}={text}"]) == 2, text
        err = capsys.readouterr().err
        assert flag in err and text in err and "Traceback" not in err
        with pytest.raises(ValueError, match=name):
            call(value)
    if bound is not None:
        assert main([*argv, f"{flag}={bound}"]) in (0, 1)
        assert capsys.readouterr().err == ""
        call(bound)
