"""The three benchmark workloads listed in BENCHMARK.json.

Each workload is a *pass*: a fixed amount of work run through labelsim's
public entry points (`labelsim simulate` in-process, `scaling_study`,
`run_experiment`). Pass k of a run draws its inputs from
(seed, k), so a run covers several independent data sets and the reported
pass time is a median over them. The program sees only these generated
inputs.

Every public call goes through the module attribute (``cli.main``,
``montecarlo.scaling_study``, ...) so that the tracer can wrap it.

Correctness is checked after the timed passes: Monte Carlo multipliers are
pooled over every pass of the run and compared with the theory prediction
within the tolerances below, which are set at 4.5 or more standard
deviations of the pooled estimate at the minimum pass count, so a correct
program does not fail them by chance.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

OUT_DIR = ".bench_out"
WORK_DIR = os.path.join(OUT_DIR, "work")


def derive_seed(seed: int, k: int) -> int:
    """Independent 32-bit config seed for pass k of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Ledger:
    """Operations attempted and failed, and the named correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def ops(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = ""):
        ok = bool(ok)
        self.ops(1, 0 if ok else 1)
        self.checks.append({"name": name, "ok": ok, "detail": detail})

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


@dataclass
class PassResult:
    """One pass: its wall time, output digest ("" when a call failed), bytes
    the CLI wrote, and values for the checks."""

    wall_s: float
    digest: str
    output_bytes: int = 0
    values: dict = field(default_factory=dict)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _slope(ms, mults) -> float:
    return float(np.polyfit(np.log(ms), np.log(mults), 1)[0])


def _pooled_ratio_checks(ledger: Ledger, label: str, results, tols):
    """Pool the empirical multipliers of every pass and check the ratio to
    theory for each key, within tols (one (lo, hi) pair, or one per key);
    returns the pooled multipliers by key."""
    pooled = {}
    if not results:
        return pooled
    for key in results[0].values:
        lo, hi = tols[key] if isinstance(tols, dict) else tols
        emp = float(np.mean([r.values[key][0] for r in results]))
        theory = results[0].values[key][1]
        ratio = emp / theory
        pooled[key] = emp
        ledger.check(f"{label}.{key}.ratio", lo <= ratio <= hi,
                     f"pooled empirical/theory {ratio:.3f} over {len(results)} "
                     f"passes, want [{lo}, {hi}]")
    return pooled


# ---------------------------------------------------------------------------


class MLScaling:
    """`labelsim simulate` on a multi-label scaling-study config (acceptance 04
    shape): Gaussian d=5, t*=2, n=20000, m_values=1,4,16."""

    name = "ml_scaling"
    trials = 3
    passes_min = 8
    ratio_tol = (0.45, 2.2)
    slope_target, slope_tol = -1.0, 0.4

    def __init__(self, labelsim):
        self.ls = labelsim

    def inputs(self, seed: int, k: int) -> str:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"{self.name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("estimator=multilabel\nn=20000\n"
                     f"trials={self.trials}\nseed={derive_seed(seed, k)}\n"
                     "d=5\nt_star=2.0\nm_values=1,4,16\n"
                     f"output={os.path.join(WORK_DIR, self.name + '.csv')}\n")
        return path

    def run_pass(self, cfg_path: str, ledger: Ledger) -> PassResult:
        out = os.path.join(WORK_DIR, self.name + ".csv")
        t0 = time.perf_counter()
        try:
            rc = self.ls.cli.main(["simulate", cfg_path])
        except Exception as exc:  # a raised call is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if rc != 0:  # the failed call is counted as a failed check
            ledger.check(f"{self.name}.simulate_exit", False, f"exit {rc}")
            return PassResult(wall, "")
        ledger.ops(1)
        with open(out, "rb") as fh:
            csv_bytes = fh.read()
        with open(out + ".summary.json", "rb") as fh:
            summary_bytes = fh.read()
        summary = json.loads(summary_bytes)
        values = {}
        for row in summary["rows"]:
            ledger.ops(row["included"] + row["excluded"], row["excluded"])
            values[f"m{row['m']}"] = (row["empirical_multiplier"],
                                      row["theory_multiplier"])
        return PassResult(wall, _sha(csv_bytes, summary_bytes),
                          len(csv_bytes) + len(summary_bytes), values)

    def check(self, results, ledger: Ledger, seed: int):
        pooled = _pooled_ratio_checks(ledger, self.name, results, self.ratio_tol)
        if not pooled:
            return
        ms = [int(k[1:]) for k in pooled]
        slope = _slope(ms, list(pooled.values()))
        ledger.check(f"{self.name}.slope",
                     abs(slope - self.slope_target) <= self.slope_tol,
                     f"pooled log-log slope {slope:.3f}, want "
                     f"{self.slope_target} +/- {self.slope_tol}")


class MVScaling:
    """`scaling_study` with estimator=majority on the same model,
    m in {1, 4, 16, 64} (acceptance 05 shape)."""

    name = "mv_scaling"
    trials = 5
    passes_min = 6
    m_values = (1, 4, 16, 64)
    ratio_tol = (0.5, 2.0)
    slope_target, slope_tol = -0.5, 0.2

    def __init__(self, labelsim):
        self.ls = labelsim

    def inputs(self, seed: int, k: int):
        ls = self.ls
        theta = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        model = ls.ModelSpec(theta_star=theta, links=(ls.logistic_link(),),
                             covariates=ls.isotropic_gaussian(5))
        return ls.ExperimentConfig(model=model, estimator="majority", n=20_000,
                                   trials=self.trials, seed=derive_seed(seed, k))

    def run_pass(self, base, ledger: Ledger) -> PassResult:
        t0 = time.perf_counter()
        try:
            study = self.ls.montecarlo.scaling_study(base, list(self.m_values))
        except Exception as exc:
            wall = time.perf_counter() - t0
            ledger.check(f"{self.name}.scaling_study", False,
                         f"raised {type(exc).__name__}: {exc}")
            return PassResult(wall, "")
        wall = time.perf_counter() - t0
        ledger.ops(1)
        values = {}
        for row in study.rows:
            ledger.ops(row["included"] + row["excluded"], row["excluded"])
            values[f"m{row['m']}"] = (row["empirical_multiplier"],
                                      row["theory_multiplier"])
        text = json.dumps({"slope": study.slope,
                           "rows": [dict(sorted(r.items())) for r in study.rows]},
                          sort_keys=True)
        return PassResult(wall, _sha(text.encode()), 0, values)

    check = MLScaling.check


class SemiparamCrowd:
    """`run_experiment` for the semiparametric pipeline (d=3, t*=1, n=40000,
    five logistic labelers; acceptance 07) and for the crowdsourcing plug-in
    (alphas 0.5, 1, 2; acceptance 08)."""

    name = "semiparam_crowd"
    sp_trials = 6
    crowd_trials = 16
    passes_min = 3
    # semiparam pools 18 trials, crowd 48, each over d-1=2 directions
    ratio_tol = {"semiparam": (0.33, 3.0), "crowd": (0.5, 2.0)}
    link_l2_max = 0.05  # acceptance 07

    def __init__(self, labelsim):
        self.ls = labelsim

    def _model(self, links):
        ls = self.ls
        return ls.ModelSpec(theta_star=np.array([1.0, 0.0, 0.0]), links=links,
                            covariates=ls.isotropic_gaussian(3))

    def inputs(self, seed: int, k: int):
        ls = self.ls
        s = derive_seed(seed, k)
        sp = ls.ExperimentConfig(model=self._model((ls.logistic_link(),) * 5),
                                 estimator="semiparam", n=40_000,
                                 trials=self.sp_trials, seed=s, split_fraction=0.1)
        crowd_links = tuple(ls.scaled_logistic_link(a) for a in (0.5, 1.0, 2.0))
        crowd = ls.ExperimentConfig(model=self._model(crowd_links),
                                    estimator="crowd", n=40_000,
                                    trials=self.crowd_trials, seed=s,
                                    split_fraction=0.1)
        return sp, crowd

    def run_pass(self, configs, ledger: Ledger) -> PassResult:
        summaries = []
        t0 = time.perf_counter()
        for config in configs:
            try:
                summaries.append(self.ls.montecarlo.run_experiment(config))
            except Exception as exc:
                ledger.check(f"{self.name}.run_experiment.{config.estimator}",
                             False, f"raised {type(exc).__name__}: {exc}")
                return PassResult(time.perf_counter() - t0, "")
        wall = time.perf_counter() - t0
        chunks, values = [], {}
        for config, summary in zip(configs, summaries):
            ledger.ops(1)
            ledger.ops(config.trials, summary.excluded_count)
            emp = self.ls.montecarlo.empirical_multiplier(summary, config.model)
            values[config.estimator] = (emp, summary.theory.variance_multiplier)
            chunks += [summary.u_hats.tobytes(), "|".join(summary.flags).encode(),
                       repr((summary.comparison, summary.theory.t_m,
                             summary.theory.variance_multiplier,
                             summary.n_effective)).encode()]
        return PassResult(wall, _sha(*chunks), 0, values)

    def check(self, results, ledger: Ledger, seed: int):
        _pooled_ratio_checks(ledger, self.name, results, self.ratio_tol)

        # acceptance 07's link check on one seeded data set of the same model
        ls = self.ls
        model = self._model((ls.logistic_link(),) * 5)
        ds = ls.sample_dataset(model, 40_000, derive_seed(seed, 10_000))
        sp = ls.semiparametric_fit(ds, split_fraction=0.1)
        z = np.linspace(-5, 5, 2001)
        w = stats.norm.pdf(z)
        truth = ls.link_eval(ls.logistic_link(), z)
        err = max(float(np.sqrt(np.trapezoid((ls.link_eval(link, z) - truth) ** 2
                                             * w, z))) for link in sp.links)
        ledger.check(f"{self.name}.link_l2", err <= self.link_l2_max,
                     f"max fitted-link L2 error {err:.4f}, want <= {self.link_l2_max}")


WORKLOADS = {w.name: w for w in (MLScaling, MVScaling, SemiparamCrowd)}
