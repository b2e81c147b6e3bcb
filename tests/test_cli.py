import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelsim import (
    ExperimentConfig,
    ModelSpec,
    PredictionKind,
    isotropic_gaussian,
    predict_covariance,
    run_experiment,
    scaled_logistic_link,
    scaling_study,
)
from labelsim import cli
from labelsim.cli import DEFAULTS, ConfigError, cmd_ingest, main
from labelsim.estimators import DIVERGENCE_THRESHOLD, GRAD_TOL, SolverOptions


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _minimal_config(tmp_path, out, extra=""):
    return _write(tmp_path / "config.txt", f"""
# small deterministic run
estimator=multilabel
n=500
trials=5
seed=7
d=2
t_star=1.0
output={out}
{extra}
""")


def test_missing_config_file_is_config_error(capsys):
    assert main(["simulate", "/nonexistent/config.txt"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_key_reports_line_number(capsys):
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        with open(path, "w") as fh:
            fh.write("n=100\nbogus_key=3\n")
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and ":2" in err


def test_beta_must_be_positive(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    config = _minimal_config(tmp_path, out,
                             extra="covariates=beta-regular\nbeta=-1.0")
    assert main(["simulate", config]) == 2
    assert "beta > 0" in capsys.readouterr().err


@pytest.mark.parametrize("lipschitz", ["nan", "inf"])
def test_lipschitz_must_be_finite(tmp_path, capsys, lipschitz):
    out = str(tmp_path / "r.csv")
    config = _minimal_config(tmp_path, out, extra=f"lipschitz={lipschitz}")
    assert main(["simulate", config]) == 2
    assert "lipschitz" in capsys.readouterr().err


def test_simulate_writes_csv_with_schema_header(tmp_path):
    out = str(tmp_path / "r.csv")
    config = _minimal_config(tmp_path, out)
    assert main(["simulate", config]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "# schema_version=2"
    header = [line for line in lines if line.startswith("# n=")]
    assert header == ["# n=500"]
    solver = [line for line in lines if line.startswith("# solver.")]
    assert solver == [f"# solver.grad_tol={GRAD_TOL!r}",
                      f"# solver.max_iters={SolverOptions().max_iters}",
                      f"# solver.divergence_threshold={DIVERGENCE_THRESHOLD!r}"]
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "trial,flag,u0,u1"
    assert len(data) == 6
    summary = json.loads(open(out + ".summary.json").read())
    assert summary["included"] == 5
    assert "empirical_multiplier" in summary


def test_simulate_rerun_is_byte_identical(tmp_path):
    for extra in ("", "estimator=majority\nm=4"):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        config = _minimal_config(tmp_path, out1, extra)
        assert main(["simulate", config]) == 0
        assert main(["simulate", config, "--output", out2]) == 0
        a, b = open(out1, "rb").read(), open(out2, "rb").read()
        assert a == b
        assert open(out1 + ".summary.json", "rb").read() \
            == open(out2 + ".summary.json", "rb").read()


def test_simulate_scaling_study_output(tmp_path):
    out = str(tmp_path / "scale.csv")
    config = _minimal_config(tmp_path, out, extra="m_values=1,2\ntrials=10\nn=1000")
    assert main(["simulate", config]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    assert data[0].startswith("m,t_m,theory_multiplier")
    assert len(data) == 3
    summary = json.loads(open(out + ".summary.json").read())
    assert len(summary["rows"]) == 2 and "slope" in summary


def _strict_json(text):
    def reject(token):  # NaN, Infinity and -Infinity are not JSON
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_scaling_study_summary_is_strict_json(tmp_path):
    # one m fits no slope: the summary says null, not NaN
    for m_values, rows in (("4", 1), ("1,2", 2)):
        out = str(tmp_path / f"scale{rows}.csv")
        config = _minimal_config(tmp_path, out, extra=f"m_values={m_values}")
        assert main(["simulate", config]) == 0
        summary = _strict_json(open(out + ".summary.json").read())
        assert len(summary["rows"]) == rows
        assert (summary["slope"] is None) == (rows == 1)


def test_simulate_exit_3_when_too_many_trials_excluded(tmp_path, capsys):
    out = str(tmp_path / "sep.csv")
    config = _minimal_config(tmp_path, out, extra="t_star=8.0\nn=30\ntrials=10")
    assert main(["simulate", config]) == 3
    assert "excluded" in capsys.readouterr().err


def test_print_config_shows_resolved_defaults(tmp_path, capsys):
    config = _minimal_config(tmp_path, "unused.csv")
    assert main(["simulate", config, "--print-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "n=500" in lines
    assert "grid_size=512" in lines  # default filled in
    assert lines == sorted(lines)


def test_theory_majority_m1_equals_well_specified(tmp_path):
    out_mv = str(tmp_path / "mv.csv")
    out_ws = str(tmp_path / "ws.csv")
    assert main(["theory", "--kind", "majority", "--m", "1",
                 "--tstar", "2.0", "--output", out_mv]) == 0
    assert main(["theory", "--kind", "well-specified", "--m", "1",
                 "--tstar", "2.0", "--output", out_ws]) == 0

    def multiplier(path):
        data = [line for line in open(path).read().splitlines()
                if not line.startswith("#")]
        return float(data[1].split(",")[-1])

    assert multiplier(out_mv) == pytest.approx(multiplier(out_ws), abs=1e-9)


def test_theory_majority_accepts_flat_labeler_links(tmp_path):
    # labelers flatter than the model link: the majority root t_m = 0.4
    # lies below t*, as the multi-label one does
    rows = {}
    for kind in ("majority", "multilabel"):
        out = str(tmp_path / f"{kind}.csv")
        assert main(["theory", "--kind", kind, "--m", "1", "--d", "5",
                     "--tstar", "2", "--link-alpha", "0.2", "--output", out]) == 0
        data = [line for line in open(out).read().splitlines()
                if not line.startswith("#")]
        rows[kind] = data[1].split(",")
    assert float(rows["majority"][3]) == pytest.approx(0.4, rel=1e-9)
    assert rows["majority"][3:] == rows["multilabel"][3:]


def test_theory_link_alpha_sets_the_labeler_link(tmp_path):
    def multiplier(link_alpha):
        out = str(tmp_path / f"ws{link_alpha}.csv")
        assert main(["theory", "--kind", "multilabel", "--m", "4", "--d", "3",
                     "--tstar", "2.0", "--link-alpha", str(link_alpha),
                     "--output", out]) == 0
        data = [line for line in open(out).read().splitlines()
                if not line.startswith("#")]
        return float(data[1].split(",")[-1])

    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0]),
                      links=(scaled_logistic_link(3.0),) * 4,
                      covariates=isotropic_gaussian(3))
    want = predict_covariance(PredictionKind.MULTI_LABEL_EXACT, model)
    assert multiplier(3.0) == want.variance_multiplier
    assert multiplier(3.0) != multiplier(1.0)


def _theory_multiplier(tmp_path, name, *args):
    out = str(tmp_path / f"{name}.csv")
    assert main(["theory", *args, "--output", out]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    return data[1].split(",")[-1]


def test_theory_crowd_link_alpha_equals_alpha_list(tmp_path):
    # both set three scaled-logistic(3) true links, whose reliabilities the
    # crowd prediction reads
    by_link_alpha = _theory_multiplier(tmp_path, "la", "--kind", "crowd", "--m", "3",
                                       "--link-alpha", "3.0")
    by_list = _theory_multiplier(tmp_path, "al", "--kind", "crowd", "--m", "3",
                                 "--link-alpha", "3,3,3")
    assert by_link_alpha == by_list
    assert by_link_alpha != _theory_multiplier(tmp_path, "one", "--kind", "crowd",
                                               "--m", "3")


@pytest.mark.parametrize("key", ["link", "model_link", "alpha"])
def test_removed_link_keys_are_unknown_keys(tmp_path, capsys, key):
    # link_alpha and model_link_alpha alone set the links: the family keys
    # and the old slope list are unknown keys, named with their line
    config = _write(tmp_path / "c.txt", f"n=100\n{key}=logistic\n")
    assert main(["simulate", config]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "c.txt:2" in err


def test_theory_has_no_alpha_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--kind", "crowd", "--alpha", "0.5,1,2"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_more_link_slopes_than_labelers_is_config_error(tmp_path, capsys):
    assert main(["theory", "--kind", "crowd", "--link-alpha", "0.5,1,2"]) == 2
    assert "3 link slopes for m=1 labelers" in capsys.readouterr().err
    config = _minimal_config(tmp_path, str(tmp_path / "r.csv"),
                             extra="m=2\nlink_alpha=0.5,1,2")
    assert main(["simulate", config]) == 2
    assert "3 link slopes for m=2 labelers" in capsys.readouterr().err


def test_link_slope_must_be_a_number(tmp_path, capsys):
    config = _minimal_config(tmp_path, str(tmp_path / "r.csv"),
                             extra="m=2\nlink_alpha=0.5,x")
    assert main(["simulate", config]) == 2
    assert "link_alpha must be a number, got 'x'" in capsys.readouterr().err


def test_link_slopes_are_cycled_to_m(tmp_path):
    # slopes (0.2, 10) at m=16 are the links (0.2, 10) x 8: the CLI's rows
    # are run_experiment's u_hats, bit for bit
    out = str(tmp_path / "r.csv")
    config = _minimal_config(tmp_path, out, extra="m=16\nlink_alpha=0.2,10")
    assert main(["simulate", config]) == 0
    model = ModelSpec(theta_star=np.array([1.0, 0.0]),
                      links=(scaled_logistic_link(0.2), scaled_logistic_link(10.0)) * 8,
                      covariates=isotropic_gaussian(2))
    want = run_experiment(ExperimentConfig(model=model, estimator="multilabel",
                                           n=500, trials=5, seed=7))
    rows = [line.split(",") for line in open(out).read().splitlines()
            if not line.startswith("#")][1:]
    got = np.array([[float(v) if v else np.nan for v in row[2:]] for row in rows])
    assert np.array_equal(got, want.u_hats, equal_nan=True)
    assert "# link_alpha=0.2,10" in open(out).read().splitlines()


def test_scaling_study_cycles_the_link_slopes_as_its_base(tmp_path):
    # in a study the slope list is the base that scaling_study cycles to
    # each m, so two slopes need no m=2
    out = str(tmp_path / "s.csv")
    config = _minimal_config(tmp_path, out,
                             extra="m_values=2,4\nlink_alpha=0.2,10\nn=1000")
    assert main(["simulate", config]) == 0
    model = ModelSpec(theta_star=np.array([1.0, 0.0]),
                      links=(scaled_logistic_link(0.2), scaled_logistic_link(10.0)),
                      covariates=isotropic_gaussian(2))
    study = scaling_study(ExperimentConfig(model=model, estimator="multilabel",
                                           n=1000, trials=5, seed=7), [2, 4])
    summary = json.loads(open(out + ".summary.json").read())
    assert [row["t_m"] for row in summary["rows"]] == [row["t_m"] for row in study.rows]
    assert [row["empirical_multiplier"] for row in summary["rows"]] \
        == [row["empirical_multiplier"] for row in study.rows]


def test_repeated_labeler_counts_are_config_error(tmp_path, capsys):
    config = _minimal_config(tmp_path, str(tmp_path / "r.csv"), extra="m_values=4,4")
    assert main(["simulate", config]) == 2
    assert "strictly ascending" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "theory", "semiparam"])
def test_unwritable_output_is_config_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "r.csv")
    if command == "theory":
        argv = ["theory", "--output", out]
    else:
        argv = [command, _minimal_config(tmp_path, out, extra="trials=2\nn=200"),
                "--output", out]
    assert main(argv) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_readme_config_block_equals_defaults():
    # the README's "Keys and defaults" block: every key=value token outside
    # a comment, in any order, is one entry of cli.DEFAULTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
    tokens = [tok for line in block.splitlines()
              for tok in line.split("#", 1)[0].split()]
    assert all("=" in tok for tok in tokens), tokens
    pairs = [tok.split("=", 1) for tok in tokens]
    assert len(pairs) == len(DEFAULTS)
    assert dict(pairs) == DEFAULTS


def test_import_does_not_load_scipy_optimize():
    # the t_m root is labelsim's own Newton solve; scipy.optimize is a
    # third of the import time and no module needs it
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, labelsim.cli; print('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_theory_semiparam_row_is_plain_numbers(tmp_path):
    out = str(tmp_path / "sp.csv")
    assert main(["theory", "--kind", "semiparam", "--m", "3",
                 "--output", out]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    assert data[0] == "kind,m,t_star,t_m,multiplier"
    kind, *numbers = data[1].split(",")
    assert kind == "semiparametric"
    for field in numbers:
        float(field)  # a numpy scalar repr such as np.float64(...) fails here


def test_theory_beta_validation(capsys):
    assert main(["theory", "--kind", "well-specified",
                 "--covariates", "beta-regular", "--beta", "-2"]) == 2
    assert "beta > 0" in capsys.readouterr().err


def test_theory_well_specified_rejects_unequal_links(tmp_path, capsys):
    # the well-specified kind is one link for every labeler; unequal ones
    # are an error in either order, and equal ones keep their multiplier
    for alphas in ("0.5,1,2", "2,1,0.5"):
        assert main(["theory", "--kind", "well-specified", "--m", "3",
                     "--link-alpha", alphas]) == 2
        assert "one link shared by every labeler" in capsys.readouterr().err
    assert _theory_multiplier(tmp_path, "ws", "--kind", "well-specified",
                              "--m", "3", "--link-alpha", "1,1,1") == "1.6132599841340414"


def test_theory_impossibility_discrepancy_tiny(tmp_path):
    out = str(tmp_path / "imp.csv")
    assert main(["theory", "--impossibility", "--m", "3", "--mbar", "1",
                 "--tstar", "1.5", "--output", out]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    m, mbar, gap = data[1].split(",")
    assert (m, mbar) == ("3", "1")
    assert float(gap) <= 1e-10


@pytest.mark.parametrize("counts", [("--m", "0"), ("--mbar", "0"), ("--m", "-2")])
def test_theory_impossibility_rejects_fewer_than_one_vote(counts, capsys):
    assert main(["theory", "--impossibility", *counts]) == 2
    assert "m >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_theory_rejects_non_finite_link_alpha(alpha, capsys):
    assert main(["theory", "--kind", "multilabel", "--link-alpha", alpha]) == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["theory", "--d", "0"], "d must be at least 1"),
    (["simulate", "d=0"], "d must be at least 1"),
    (["theory", "--impossibility", "--d", "0"], "d must be at least 1"),
    (["theory", "--tstar", "nan"], "theta_star must be finite"),
    (["theory", "--tstar", "inf"], "theta_star must be finite"),
    (["theory", "--impossibility", "--tstar", "nan"], "theta_star and theta_bar"),
    (["theory", "--impossibility", "--tstar", "-1"], "t_star must be positive"),
    (["theory", "--covariates", "beta-regular", "--beta", "nan"], "beta > 0"),
    (["theory", "--covariates", "beta-regular", "--beta", "inf"], "beta > 0"),
    (["simulate", "covariates=beta-regular\nbeta=nan"], "beta > 0"),
])
def test_bad_model_inputs_are_config_errors_naming_the_parameter(
        tmp_path, capsys, argv, message):
    # an empty dimension, a non-finite or nonpositive norm and a non-finite
    # beta are rejected where they enter; a simulate case's second item is
    # the config's extra lines
    if argv[0] == "simulate":
        argv = ["simulate", _minimal_config(tmp_path, str(tmp_path / "r.csv"),
                                            extra=argv[1])]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_semiparam_command_writes_links(tmp_path):
    out = str(tmp_path / "sp.csv")
    config = _write(tmp_path / "sp.txt",
                    f"n=2000\nd=2\nm=2\ntrials=2\ngrid_size=32\noutput={out}\n")
    assert main(["semiparam", config]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    assert data[0] == "record,labeler,index,value,grid"
    u_rows = [line for line in data[1:] if line.startswith("u_hat")]
    link_rows = [line for line in data[1:] if line.startswith("link")]
    assert len(u_rows) == 2
    assert len(link_rows) == 2 * 33  # grid_size rounded up to odd


def test_ingest_accepts_both_label_encodings(tmp_path):
    path = _write(tmp_path / "data.csv",
                  "x1,x2,y1,y2\n0.5,-1.2,1,0\n0.1,0.3,-1,1\n")
    ds = cmd_ingest(path)
    assert (ds.n, ds.d, ds.m) == (2, 2, 2)
    assert np.array_equal(ds.Y, [[1, -1], [-1, 1]])
    assert main(["ingest", path]) == 0


def test_ingest_rejects_bad_label_with_line_number(tmp_path, capsys):
    path = _write(tmp_path / "bad.csv",
                  "x1,y1\n0.5,1\n0.3,2\n")
    with pytest.raises(ConfigError, match=":3"):
        cmd_ingest(path)
    assert main(["ingest", path]) == 2
    assert ":3" in capsys.readouterr().err


def test_ingest_rejects_non_finite_features_with_line_number(tmp_path, capsys):
    for row in ("nan,0.5,1,0", "0.5,inf,1,0"):
        path = _write(tmp_path / "f.csv", f"x1,x2,y1,y2\n0.1,0.3,-1,1\n{row}\n")
        with pytest.raises(ConfigError, match=":3: non-finite feature"):
            cmd_ingest(path)
        assert main(["ingest", path]) == 2
        assert ":3" in capsys.readouterr().err


def test_ingest_header_validation(tmp_path):
    interleaved = _write(tmp_path / "i.csv", "x1,y1,x2\n1,1,1\n")
    with pytest.raises(ConfigError):
        cmd_ingest(interleaved)
    no_features = _write(tmp_path / "n.csv", "y1,y2\n1,1\n")
    with pytest.raises(ConfigError):
        cmd_ingest(no_features)
    ragged = _write(tmp_path / "r.csv", "x1,y1\n1,1,1\n")
    with pytest.raises(ConfigError, match=":2"):
        cmd_ingest(ragged)
