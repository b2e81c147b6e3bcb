import json

import numpy as np
import pytest

from labelsim import (
    ModelSpec,
    PredictionKind,
    isotropic_gaussian,
    predict_covariance,
    scaled_logistic_link,
)
from labelsim.cli import ConfigError, cmd_ingest, main


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


def test_simulate_writes_csv_with_schema_header(tmp_path):
    out = str(tmp_path / "r.csv")
    config = _minimal_config(tmp_path, out)
    assert main(["simulate", config]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "# schema_version=1"
    header = [line for line in lines if line.startswith("# n=")]
    assert header == ["# n=500"]
    assert any(line.startswith("# solver.grad_tol=") for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "trial,flag,u0,u1"
    assert len(data) == 6
    summary = json.loads(open(out + ".summary.json").read())
    assert summary["included"] == 5
    assert "empirical_multiplier" in summary


def test_simulate_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    config = _minimal_config(tmp_path, out1)
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
    by_list = _theory_multiplier(tmp_path, "al", "--kind", "crowd",
                                 "--alpha", "3,3,3")
    assert by_link_alpha == by_list
    assert by_link_alpha != _theory_multiplier(tmp_path, "one", "--kind", "crowd",
                                               "--m", "3")


@pytest.mark.parametrize("key", ["link", "model_link"])
def test_logistic_with_alpha_other_than_one_is_config_error(tmp_path, capsys, key):
    config = _minimal_config(tmp_path, str(tmp_path / "out.csv"),
                             extra=f"{key}=logistic\n{key}_alpha=3.0")
    assert main(["simulate", config]) == 2
    assert f"{key}_alpha=3.0" in capsys.readouterr().err


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


def test_theory_impossibility_discrepancy_tiny(tmp_path):
    out = str(tmp_path / "imp.csv")
    assert main(["theory", "--impossibility", "--m", "3", "--mbar", "1",
                 "--tstar", "1.5", "--output", out]) == 0
    data = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    m, mbar, gap = data[1].split(",")
    assert (m, mbar) == ("3", "1")
    assert float(gap) <= 1e-10


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
