"""Layer-boundary tracing for the labelsim benchmark.

The tracer replaces the public names that one labelsim module calls in
another with wrappers that record a span (name, start, end, parent, trial
id, attributes) and restores the originals afterwards. Nothing inside
labelsim changes; every span is recorded from these benchmark files, at the
boundary between two layers.

Per-layer metrics are derived from the spans once the traced passes end:
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time

import numpy as np

# metric names of the estimator loss modes and theory kinds
FIT_MODES = {"multilabel": "multilabel", "majority": "majority",
             "per-labeler": "per_labeler", "crowd-scaled": "crowd_scaled"}
THEORY_KINDS = {"multilabel-exact": "multilabel_exact",
                "majority-exact": "majority_exact",
                "semiparametric": "semiparametric",
                "crowdsourcing": "crowdsourcing"}
# layers with a self-time total; cli's is cli.main.self_s
LAYERS = ("montecarlo", "datagen", "estimators", "semiparam", "theory")
TAIL_FACTOR = 5.0  # a trial over 5x the median trial time is in the tail


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "attrs", "child_s")

    def __init__(self, name, start, parent, trial, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trial = trial
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "trial": self.trial,
                **self.attrs}


class Tracer:
    """Records nested spans in memory; single-threaded by construction."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._trials = 0
        self._current_trial: dict[int, int] = {}  # run_experiment span -> trial

    # -- spans -------------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        trial = None
        if parent is not None:
            pspan = self.spans[parent]
            if pspan.name == "montecarlo.run_experiment":
                # a trial runs from its sample_dataset call to the end of its
                # estimator call; the closing theory call belongs to no trial
                if name == "datagen.sample_dataset":
                    self._trials += 1
                    self._current_trial[parent] = self._trials
                if name != "theory.predict_covariance":
                    trial = self._current_trial.get(parent)
            else:
                trial = pspan.trial
        self.spans.append(Span(name, time.perf_counter(), parent, trial, attrs))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, **attrs):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        before(args, kwargs) -> dict of attributes known at entry;
        after(result, args, kwargs) -> dict of attributes read from the result.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name, **(before(args, kwargs) if before else {}))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            tracer.close(index, **(after(result, args, kwargs) if after else {}))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the boundaries that are wrapped


def _fit_after(result, args, kwargs):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _kind_before(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    kind = getattr(kind, "value", kind)
    model = args[1] if len(args) > 1 else kwargs["model"]
    return {"kind": THEORY_KINDS.get(kind, kind), "m": model.m}


def _dataset_after(result, args, kwargs):
    return {"bytes": int(result.X.nbytes + result.Y.nbytes)}


def _links_after(result, args, kwargs):
    _, diag = result
    return {"link_iters": [int(i) for i in diag.iterations]}


def _experiment_after(result, args, kwargs):
    return {"excluded": int(result.excluded_count)}


def install(tracer: Tracer, labelsim_modules) -> None:
    """Wrap every cross-module name the workloads pass through."""
    cli, montecarlo, semiparam, estimators, theory = labelsim_modules
    default_opts = estimators.SolverOptions()

    def fit_before(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        opts = args[2] if len(args) > 2 else kwargs.get("opts", default_opts)
        return {"mode": FIT_MODES[spec.mode.value], "max_iters": opts.max_iters}

    tracer.patch(cli, "main", "cli.main")
    for owner in (cli, montecarlo):
        tracer.patch(owner, "scaling_study", "montecarlo.scaling_study")
        tracer.patch(owner, "run_experiment", "montecarlo.run_experiment",
                     after=_experiment_after)
        tracer.patch(owner, "predict_covariance", "theory.predict_covariance",
                     before=_kind_before)
    tracer.patch(montecarlo, "sample_dataset", "datagen.sample_dataset",
                 after=_dataset_after)
    for owner in (montecarlo, semiparam):
        tracer.patch(owner, "fit", "estimators.fit",
                     before=fit_before, after=_fit_after)
    tracer.patch(montecarlo, "semiparametric_fit", "semiparam.semiparametric_fit")
    tracer.patch(montecarlo, "estimate_alpha", "semiparam.estimate_alpha")
    tracer.patch(montecarlo, "crowdsourced_fit", "semiparam.crowdsourced_fit")
    tracer.patch(semiparam, "fit_links_with_diagnostics", "semiparam.fit_links",
                 after=_links_after)
    tracer.patch(estimators, "majority_vote_matrix", "datagen.majority_vote_matrix")
    tracer.patch(theory, "solve_tm", "theory.solve_tm")

    # ZExpectationEngine.expect also counts the points its integrand sees
    engine_cls = theory.ZExpectationEngine
    original = engine_cls.expect

    def expect(engine, f):
        points = 0

        def counted(z):
            nonlocal points
            points += int(np.size(z))
            return f(z)

        index = tracer.open("theory.expect")
        try:
            value = original(engine, counted)
        except BaseException as exc:
            tracer.close(index, points=points, error=type(exc).__name__)
            raise
        tracer.close(index, points=points)
        return value

    expect.__wrapped__ = original
    engine_cls.expect = expect
    tracer._patches.append((engine_cls, "expect", original))


# ---------------------------------------------------------------------------
# per-layer metrics


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _timing(prefix: str, spans, out: dict, stats=("calls", "total_s", "p50_ms")):
    ms = [s.duration * 1e3 for s in spans]
    table = {
        "calls": len(spans),
        "total_s": sum(s.duration for s in spans),
        "self_s": sum(s.self_s for s in spans),
        "p50_ms": _pct(ms, 50),
        "p90_ms": _pct(ms, 90),
        "max_ms": max(ms, default=0.0),
    }
    for stat in stats:
        out[f"{prefix}.{stat}"] = table[stat]


def layer_metrics(spans: list[Span], traced_wall_s: float,
                  untraced_wall_s: float, output_bytes: int) -> dict:
    """Every per-layer metric, from the spans of the traced passes and the
    bytes the CLI wrote in them."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    get = lambda name: by_name.get(name, [])  # noqa: E731
    out: dict[str, float] = {}

    main = get("cli.main")
    _timing("cli.main", main, out, ("calls", "self_s", "p50_ms", "p90_ms"))
    out["cli.output_bytes"] = output_bytes

    runs = get("montecarlo.run_experiment")
    _timing("montecarlo.run_experiment", runs, out, ("calls", "self_s"))
    trials: dict[int, list[float]] = {}
    for span in spans:
        if span.trial is not None and span.parent is not None \
                and spans[span.parent].name == "montecarlo.run_experiment":
            lo_hi = trials.setdefault(span.trial, [span.start, span.end])
            lo_hi[0] = min(lo_hi[0], span.start)
            lo_hi[1] = max(lo_hi[1], span.end)
    trial_ms = [(hi - lo) * 1e3 for lo, hi in trials.values()]
    median = _pct(trial_ms, 50)
    out["montecarlo.trial.count"] = len(trial_ms)
    out["montecarlo.trial.p50_ms"] = median
    out["montecarlo.trial.p90_ms"] = _pct(trial_ms, 90)
    out["montecarlo.trial.max_ms"] = max(trial_ms, default=0.0)
    out["montecarlo.trial.excluded"] = sum(s.attrs.get("excluded", 0) for s in runs)
    total = sum(trial_ms)
    out["montecarlo.trial.tail_share"] = (
        sum(t for t in trial_ms if t > TAIL_FACTOR * median) / total if total else 0.0)

    samples = get("datagen.sample_dataset")
    _timing("datagen.sample_dataset", samples, out)
    out["datagen.sample_dataset.bytes_computed"] = sum(s.attrs["bytes"] for s in samples
                                                       if "bytes" in s.attrs)
    _timing("datagen.majority_vote_matrix", get("datagen.majority_vote_matrix"),
            out, ("calls", "total_s"))

    fits = get("estimators.fit")
    for mode in FIT_MODES.values():
        mode_fits = [s for s in fits if s.attrs["mode"] == mode]
        prefix = f"estimators.fit.{mode}"
        _timing(prefix, mode_fits, out,
                ("calls", "total_s", "p50_ms", "p90_ms", "max_ms"))
        # a raised NonConvergence ran every iteration and has no result
        iters = [s.attrs.get("iters", s.attrs["max_iters"]) for s in mode_fits]
        out[f"{prefix}.iters_p50"] = _pct(iters, 50)
        out[f"{prefix}.iters_max"] = max(iters, default=0)
        out[f"{prefix}.iters_total"] = sum(iters)
        out[f"{prefix}.stalled"] = sum(
            1 for s, it in zip(mode_fits, iters) if it >= s.attrs["max_iters"])
        out[f"{prefix}.unconverged"] = sum(
            1 for s in mode_fits if not s.attrs.get("converged", False))

    _timing("semiparam.semiparametric_fit", get("semiparam.semiparametric_fit"),
            out, ("calls", "total_s", "self_s"))
    links = get("semiparam.fit_links")
    _timing("semiparam.fit_links", links, out, ("calls", "total_s", "p50_ms"))
    link_iters = [i for s in links for i in s.attrs.get("link_iters", [])]
    out["semiparam.fit_links.iters_p50"] = _pct(link_iters, 50)
    out["semiparam.fit_links.iters_max"] = max(link_iters, default=0)
    # Dykstra's projection loop in semiparam stops at 500 iterations
    out["semiparam.fit_links.capped"] = sum(1 for i in link_iters if i >= 500)
    _timing("semiparam.estimate_alpha", get("semiparam.estimate_alpha"), out,
            ("calls", "total_s"))
    _timing("semiparam.crowdsourced_fit", get("semiparam.crowdsourced_fit"), out,
            ("total_s",))

    preds = get("theory.predict_covariance")
    for kind in THEORY_KINDS.values():
        _timing(f"theory.predict_covariance.{kind}",
                [s for s in preds if s.attrs["kind"] == kind], out,
                ("calls", "total_s", "p50_ms", "max_ms"))
    _timing("theory.solve_tm", get("theory.solve_tm"), out, ("calls", "total_s"))
    expects = get("theory.expect")
    _timing("theory.expect", expects, out, ("calls", "total_s"))
    out["theory.expect.points"] = sum(s.attrs.get("points", 0) for s in expects)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for s in spans
                                     if s.name.split(".", 1)[0] == layer)
    out["bench.self_s"] = sum(s.self_s for s in get("bench.pass"))
    out["trace.wall_s"] = traced_wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    return out
