"""Task configs for the two benchmark workloads, drawn from a workload seed.

Each workload fixes the structure of its environments (jump bound B, period
L, which class lacks a jump, drift sign) and draws only the probabilities
from ``numpy.random.default_rng(seed)``, so another seed keeps the
workload's character and cost. The exceptions are the two B=2, L=3
environments searched by ratio continuation, which are fixed (see
B2_NO_MINUS2). The program's own ``rwre_ldp.rng`` is not used, so a change
to it cannot change the inputs.

No two tasks of a workload share an environment or its reflection: every
task gets its own draw, so no task is served from another task's cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("rate_sweep", "per_tilt_mc")

# The B=2 rate curve skips in-range speeds within 0.2 of the attainable
# drift range [-1.5, 2.0]: the level-2 oracle of the correctness gate needs
# 15 s to minutes per point there. Speeds -2.0 and -1.75 lie outside the
# range, where the true cost is +inf. It also skips speed 0: the other
# speeds bracket their roots off a 1e-4 threshold estimate, so speed 0
# alone would start one more r_c search inside rate(), at rc_tol, and add
# about a quarter to the task's cost; the B=1 curves keep it.
_B2_NO_MINUS2_GRID = (
    -2.0, -1.75, -1.25, -1.0, -0.75, -0.5, -0.25,
    0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75,
)


@dataclass(frozen=True)
class Task:
    """One ``rwre-ldp run`` invocation: a config plus the CLI flags."""

    name: str
    config: dict
    threads: int = 1


def _b1_law(p_plus: float) -> dict:
    return {"-1": 1.0 - p_plus, "1": p_plus}


def _b1_periodic(g: np.random.Generator, base: tuple[float, ...], jitter: float = 0.02) -> dict:
    """Unit-jump periodic environment: p(+1) of class i is base[i] +- jitter."""
    ps = np.asarray(base) + g.uniform(-jitter, jitter, len(base))
    return {"type": "periodic", "B": 1, "laws": [_b1_law(float(p)) for p in ps]}


def _b1_long(g: np.random.Generator, length: int) -> dict:
    """Unit-jump environment with a long period and rightward drift."""
    ps = g.uniform(0.5, 0.8, length)
    return {"type": "periodic", "B": 1, "laws": [_b1_law(float(p)) for p in ps]}


def _b2_full(g: np.random.Generator, length: int) -> dict:
    """Jumps up to 2 with every offset present; weights 0.5 + U(0, 1),
    normalised, so the drift range is the whole of [-2, 2]."""
    laws = []
    for _ in range(length):
        w = 0.5 + g.random(4)
        w = w / w.sum()
        laws.append({z: float(p) for z, p in zip(("-2", "-1", "1", "2"), w)})
    return {"type": "periodic", "B": 2, "laws": laws}


def _b2_zero_drift(g: np.random.Generator) -> dict:
    """Homogeneous B=2 law with mean exactly zero up to rounding, around
    the (1/7, 3/7, 1/7, 2/7) law of the counterexample."""
    a = 1 / 7 * (1.0 + g.uniform(-0.05, 0.05))  # p(-2)
    c = 2 / 7 * (1.0 + g.uniform(-0.05, 0.05))  # p(+2)
    # p(-1) + p(+1) = 1 - a - c and p(-1) - p(+1) = 2c - 2a give mean zero
    b = (1.0 - 3.0 * a + c) / 2.0
    d = (1.0 + a - 3.0 * c) / 2.0
    return {"type": "homogeneous", "B": 2, "laws": [{"-2": a, "-1": b, "1": d, "2": c}]}


# The two B=2, L=3 environments whose r_c is searched by ratio continuation
# are fixed, not drawn. The cost of that search is heavy-tailed in the
# distance between bisection midpoints and r_c: draws 1 % apart took 14 to
# 30 s for the same rate-curve task, and 4.8 to 6.4 s for the same
# mc-verify task, which no run length averages out.

# class 2 has no -2 jump, so the attainable drifts are [-1.5, 2.0]
B2_NO_MINUS2 = {"type": "periodic", "B": 2, "laws": [
    {"-2": 0.1, "-1": 0.3, "1": 0.3, "2": 0.3},
    {"-2": 0.2, "-1": 0.3, "1": 0.25, "2": 0.25},
    {"-1": 0.35, "1": 0.35, "2": 0.3},
]}

# full support and rightward drift: transient, as the MC velocity and
# passage checks require
B2_DRIFTED = {"type": "periodic", "B": 2, "laws": [
    {"-2": 0.1, "-1": 0.2, "1": 0.3, "2": 0.4},
    {"-2": 0.15, "-1": 0.25, "1": 0.3, "2": 0.3},
    {"-2": 0.1, "-1": 0.3, "1": 0.25, "2": 0.35},
]}


def rate_sweep(g: np.random.Generator, nproc: int) -> list[Task]:
    """Rate curves over [-B, B]: the critical-tilt search under load."""
    return [
        Task("rate_curve_b2_per3", {
            "task": "rate-curve",
            "environment": B2_NO_MINUS2,
            "grid": list(_B2_NO_MINUS2_GRID),
            "rc_tol": 1e-5,
        }),
        Task("rate_curve_b1_per2", {
            "task": "rate-curve",
            "environment": _b1_periodic(g, (0.8, 0.4)),
            "grid": {"min": -1.0, "max": 1.0, "points": 21},
            "rc_tol": 1e-6,
        }),
        Task("rate_curve_b1_per3", {
            "task": "rate-curve",
            "environment": _b1_periodic(g, (0.75, 0.45, 0.65)),
            "grid": {"min": -1.0, "max": 1.0, "points": 21},
            "rc_tol": 1e-6,
        }),
        Task("symmetry_b1_per4", {
            "task": "symmetry-check",
            "environment": _b1_periodic(g, (0.7, 0.4, 0.6, 0.55)),
            "grid": [0.1, 0.3, 0.5, 0.7, 0.9],
            "tolerance": 1e-7,
            "rc_tol": 1e-8,
        }),
        Task("symmetry_b1_hom", {
            "task": "symmetry-check",
            "environment": {"type": "homogeneous", "B": 1,
                            "laws": [_b1_law(0.7 + g.uniform(-0.02, 0.02))]},
            "grid": [0.1, 0.3, 0.5, 0.7, 0.9],
            "tolerance": 1e-7,
            "rc_tol": 1e-8,
        }),
        Task("counterexample_b2_hom", {
            "task": "counterexample",
            "environment": _b2_zero_drift(g),
            "control_environment": _b1_periodic(g, (0.8, 0.4)),
            "r_values": [-0.25, -0.5, -1.0, -2.0],
            "threshold": 1e-3,
        }),
        Task("lambda_curve_b1_per2", {
            "task": "lambda-curve",
            "environment": _b1_periodic(g, (0.8, 0.4)),
            "grid": {"min": -2.0, "max": -0.05, "points": 25},
            "tolerance": 1e-10,
            "rc_tol": 1e-6,
        }),
    ]


def _long_period(g: np.random.Generator) -> list[Task]:
    """Per-tilt solves on long periods; never searches for r_c."""
    tasks = []
    for length, r in ((1024, -0.3), (1024, -1.0), (1024, -2.0), (1536, -0.6), (2048, -0.9)):
        tasks.append(Task(f"tilt_report_b1_L{length}_r{r:g}", {
            "task": "tilt-report", "environment": _b1_long(g, length), "r": r,
        }))
    # 4*B*L = 264 > 256 for L=33: the ratio solver's value-iteration boxes
    # are skipped, which the benchmark keeps as a recorded defect
    for length, r in ((32, -0.4), (32, -0.8), (32, -1.2), (33, -0.4)):
        tasks.append(Task(f"tilt_report_b2_L{length}_r{r:g}", {
            "task": "tilt-report", "environment": _b2_full(g, length), "r": r,
        }))
    for k in range(4):
        tasks.append(Task(f"counterexample_b2_L24_{k}", {
            "task": "counterexample",
            "environment": _b2_full(g, 24),
            "r_values": [float(r) for r in np.linspace(-2.0, -0.05, 40)],
            # near-uniform random laws vary their direction gap by 1e-4 to
            # 1e-2 over this grid; the sevenths law's 1e-3 resolution is too
            # coarse for them
            "threshold": 1e-6,
        }))
    # two drifts only: the gate checks each against rate.rate, whose r_c
    # search costs about 5 s per environment
    for length, xi in ((24, -0.3), (32, 0.5)):
        tasks.append(Task(f"level2_min_b2_L{length}_xi{xi:g}", {
            "task": "level2-min",
            "environment": _b2_full(g, length),
            "xi": xi,
            "tolerance": 1e-10,
        }))
    return tasks


# committed configs/mc_verify_per2.json, kept fixed so the workload always
# runs the parameters the repository ships
_PER2_MC = {
    "task": "mc-verify",
    "environment": {
        "type": "periodic", "B": 1,
        "laws": [{"-1": 0.2, "1": 0.8}, {"-1": 0.6, "1": 0.4}],
    },
    "seed": 20260815,
    "mc": {"n_steps": 10000, "n_walkers": 200, "mgf_walkers": 50000,
           "level": 8, "gate": 3.0, "r": -0.3},
}


def _mc_verify(nproc: int) -> list[Task]:
    """All six simulation checks; the only tasks that walk. Their inputs do
    not depend on the seed (see B2_DRIFTED and the simulation seed)."""
    return [
        Task("mc_verify_per2", _PER2_MC, threads=1),
        Task("mc_verify_b2_per3", {
            "task": "mc-verify",
            "environment": B2_DRIFTED,
            # a fresh simulation seed per workload seed would turn the ten
            # 3-sigma gates into a coin that fails about one seed in forty
            "seed": 31415926,
            # half the committed walk lengths and MGF walkers, so that three
            # passes of per_tilt_mc fit a run
            "mc": {"n_steps": 5000, "n_walkers": 200, "mgf_walkers": 25000,
                   "level": 8, "gate": 3.0, "r": -0.3},
        }, threads=min(2, nproc)),
    ]


def per_tilt_mc(g: np.random.Generator, nproc: int) -> list[Task]:
    """Everything that does not search for r_c under load: the per-tilt
    solves on long periods, then the six simulation checks. The two groups
    share one workload so that each run of the benchmark can measure for
    longer (see perfbench/NOTES.md)."""
    return _long_period(g) + _mc_verify(nproc)


def make_tasks(workload: str, seed: int, nproc: int) -> list[Task]:
    g = np.random.default_rng(seed)
    return {"rate_sweep": rate_sweep, "per_tilt_mc": per_tilt_mc}[workload](g, nproc)


def value_count(config: dict) -> int:
    """Values a task returns that the correctness gate checks; a task that
    fails outright counts all of them as failed."""
    task = config["task"]
    if task == "rate-curve":
        grid = config["grid"]
        return len(grid) if isinstance(grid, list) else int(grid["points"])
    if task == "symmetry-check":
        return 2 * len(config["grid"])
    if task == "lambda-curve":
        return 2 * int(config["grid"]["points"])
    if task == "counterexample":
        # lambda and lambda_bar per tilt, plus the control's constant gap
        return 2 * len(config["r_values"]) + ("control_environment" in config)
    if task == "mc-verify":
        return 6
    if task == "tilt-report":
        return 5  # kernel, slope, speed, density mean, growth rate
    return 1  # level2-min: one value
