"""Spans around the calls into each layer, recorded from outside the package.

`install` rebinds the public functions of every ``rwre_ldp`` module to
timing wrappers, in the defining module and in every module that imported
them by name (``cli.estimate_rc``, ``rate.ansatz_measure``,
``mc.passage_ensemble``, ...). Calls a module makes to its own functions go
through its globals, so they are caught too. ``rate._rc_cached`` holds the
original ``estimate_rc`` inside an ``lru_cache``; it is rebuilt around the
wrapper while its cache is still empty, so the r_c searches started inside
``rate_curve`` show up as spans without changing what gets cached.

The two hottest functions, ``rng.stream_key`` and ``rng.uniform_at``, get a
call count and a total time instead of one span per call. Spans stay in
memory; `layer_metrics` reduces them once the pass is over.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs timed as spans; the span name is "module.function"
SPANNED = {
    "cli": ("run", "parse_config"),
    "passage": ("estimate_rc", "zeta_nn", "hit_mgf", "u_limit", "lyapunov",
                "lyapunov_bar", "lyapunov_prime", "lambda_curve"),
    "rate": ("rate_curve", "rate", "xi_critical", "asymmetry_demo"),
    "tilt": ("ansatz_measure", "tilt_kernel", "corrector", "invariant_density",
             "stationary_speed"),
    "level2": ("minimize_entropy", "drift_range"),
    "mc": ("empirical_velocity_check", "passage_lln_check", "mgf_match_check",
           "moment_envelope_check", "tilted_drift_check", "corrector_path_check",
           "walk_ensemble", "passage_ensemble"),
}
COUNTED = {"rng": ("stream_key", "uniform_at")}

MC_CHECKS = {
    "empirical_velocity_check": "empirical-velocity",
    "passage_lln_check": "passage-lln",
    "mgf_match_check": "mgf-match",
    "moment_envelope_check": "moment-envelope",
    "tilted_drift_check": "tilted-drift",
    "corrector_path_check": "corrector-path",
}


def _work(name: str, result) -> dict:
    """Effort counters read off a span's return value."""
    if name == "passage.estimate_rc":
        return {"evaluations": result.evaluations}
    if name == "passage.zeta_nn":
        return {"cycles": result.cycles}
    if name == "passage.hit_mgf":
        return {"sweeps": result.iterations}
    if name == "level2.minimize_entropy":
        return {"iterations": result.iterations}
    if name == "rate.rate":
        return {"saturated": int(result.branch == "saturated")}
    if name == "mc.walk_ensemble":
        return {"steps": int(result.positions.size) * int(result.n_steps)}
    if name == "mc.passage_ensemble":
        tau, _censored = result
        return {"steps": int(tau.sum())}
    return {}


def _work_on_error(name: str, exc: BaseException) -> dict:
    # a supercritical zeta recursion reports the cycles it ran before failing
    if name == "passage.zeta_nn":
        return {"cycles": getattr(exc, "diagnostics", {}).get("cycles", 0)}
    return {}


class Tracer:
    """In-memory span store. A span is [name, start, end, parent, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        # one counter dict per thread, so pool threads never share a total
        self._counters: list[defaultdict] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _count(self) -> defaultdict:
        c = getattr(self._local, "count", None)
        if c is None:
            c = self._local.count = defaultdict(float)
            self._counters.append(c)
        return c

    def totals(self) -> defaultdict:
        out = defaultdict(float)
        for c in self._counters:
            for k, v in c.items():
                out[k] += v
        return out

    def span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
                rec[4] = _work(name, out)
                return out
            except Exception as exc:
                rec[4] = _work_on_error(name, exc)
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counter(self, fn, name: str):
        draws = name == "rng.uniform_at"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            c = self._count()
            c[f"{name}.calls"] += 1
            c[f"{name}.s"] += dt
            if draws:
                c["draws"] += len(out)
            return out

        return wrapper


def install(tracer: Tracer) -> None:
    """Rebind the traced functions in every loaded rwre_ldp module."""
    modules = [m for n, m in sys.modules.items() if n == "rwre_ldp" or n.startswith("rwre_ldp.")]
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.counter)):
        for short, names in table.items():
            home = sys.modules[f"rwre_ldp.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = make(orig, f"{short}.{fname}")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
    rate = sys.modules["rwre_ldp.rate"]
    passage = sys.modules["rwre_ldp.passage"]
    if rate._rc_cached.cache_info().currsize:
        raise RuntimeError("tracing must be installed before the first rate evaluation")
    rate._rc_cached = functools.lru_cache(maxsize=256)(passage.estimate_rc)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts, inclusive times (outermost span of a name only),
    self times (span minus its direct children) and work counters."""
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, parent, w) in enumerate(spans):
        calls[name] += 1
        self_t[name] += (t1 - t0) - child_time[i]
        for k, v in (w or {}).items():
            work[f"{name}.{k}"] += v
        # inclusive time counts a span only if no ancestor has its name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += t1 - t0
            if name == "rate.rate":
                work["rate.points"] += 1
                work["rate.saturated_points"] += (w or {}).get("saturated", 0)

    def under(name: str, parent_prefix: str) -> tuple[int, float]:
        n, s = 0, 0.0
        for nm, t0, t1, parent, _ in spans:
            if nm == name and parent >= 0 and spans[parent][0].startswith(parent_prefix):
                n += 1
                s += t1 - t0
        return n, s

    cli_rc_calls, cli_rc_s = under("passage.estimate_rc", "cli.")
    # searches started by rate(): zero if rate._rc_cached were left unwrapped
    rate_rc_calls, rate_rc_s = under("passage.estimate_rc", "rate.")
    analytic = sum(
        t1 - t0 for nm, t0, t1, parent, _ in spans
        if parent >= 0 and spans[parent][0].startswith("mc.")
        and nm.split(".")[0] in ("passage", "tilt")
    )
    ens_s = incl["mc.walk_ensemble"] + incl["mc.passage_ensemble"]
    counted = tracer.totals()
    draws = counted["draws"]
    steps = work["mc.walk_ensemble.steps"] + work["mc.passage_ensemble.steps"]
    m = {
        "cli.run.self_s": self_t["cli.run"],
        "cli.parse_config.s": incl["cli.parse_config"],
        "cli.estimate_rc.calls": cli_rc_calls,
        "cli.estimate_rc.s": cli_rc_s,
        "passage.estimate_rc.calls": calls["passage.estimate_rc"],
        "passage.estimate_rc.s": incl["passage.estimate_rc"],
        "passage.estimate_rc.evaluations": work["passage.estimate_rc.evaluations"],
        "passage.estimate_rc.share": incl["passage.estimate_rc"] / wall_s if wall_s > 0 else 0.0,
        "passage.zeta_nn.calls": calls["passage.zeta_nn"],
        "passage.zeta_nn.s": incl["passage.zeta_nn"],
        "passage.zeta_nn.cycles": work["passage.zeta_nn.cycles"],
        "passage.hit_mgf.calls": calls["passage.hit_mgf"],
        "passage.hit_mgf.s": incl["passage.hit_mgf"],
        "passage.hit_mgf.sweeps": work["passage.hit_mgf.sweeps"],
    }
    for fn in ("u_limit", "lyapunov", "lyapunov_bar"):
        m[f"passage.{fn}.calls"] = calls[f"passage.{fn}"]
        m[f"passage.{fn}.s"] = incl[f"passage.{fn}"]
    m["passage.lyapunov_prime.s"] = incl["passage.lyapunov_prime"]
    m["passage.lambda_curve.s"] = incl["passage.lambda_curve"]
    m.update({
        "rate.rate_curve.self_s": self_t["rate.rate_curve"],
        "rate.rate.calls": calls["rate.rate"],
        "rate.estimate_rc.calls": rate_rc_calls,
        "rate.estimate_rc.s": rate_rc_s,
        "rate.points": work["rate.points"],
        "rate.saturated_points": work["rate.saturated_points"],
        "rate.xi_critical.s": incl["rate.xi_critical"],
        "rate.asymmetry_demo.s": incl["rate.asymmetry_demo"],
        "tilt.ansatz_measure.calls": calls["tilt.ansatz_measure"],
        "tilt.ansatz_measure.s": incl["tilt.ansatz_measure"],
        "tilt.tilt_kernel.calls": calls["tilt.tilt_kernel"],
        "tilt.tilt_kernel.s": incl["tilt.tilt_kernel"],
        "tilt.corrector.s": incl["tilt.corrector"],
        "tilt.invariant_density.s": incl["tilt.invariant_density"],
        "tilt.stationary_speed.calls": calls["tilt.stationary_speed"],
        "level2.minimize_entropy.calls": calls["level2.minimize_entropy"],
        "level2.minimize_entropy.s": incl["level2.minimize_entropy"],
        "level2.minimize_entropy.iterations": work["level2.minimize_entropy.iterations"],
        "level2.drift_range.s": incl["level2.drift_range"],
    })
    for fn, check in MC_CHECKS.items():
        m[f"mc.{check}.s"] = incl[f"mc.{fn}"]
    m.update({
        "mc.walk_ensemble.s": incl["mc.walk_ensemble"],
        "mc.passage_ensemble.s": incl["mc.passage_ensemble"],
        "mc.ensemble_share": ens_s / wall_s if wall_s > 0 else 0.0,
        "mc.analytic_s": analytic,
        "mc.draws": draws,
        "mc.useful_draw_ratio": steps / draws if draws else 0.0,
        "mc.draws_per_s": draws / ens_s if ens_s > 0 else 0.0,
        "rng.stream_key.calls": counted["rng.stream_key.calls"],
        "rng.uniform_at.calls": counted["rng.uniform_at.calls"],
        "rng.uniform_at.s": counted["rng.uniform_at.s"],
    })
    return {k: float(v) for k, v in m.items()}
