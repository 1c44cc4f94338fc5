"""The benchmark's workloads: the operations of one pass and their checks.

A pass is a list of operations. Each operation calls into pjmp through a
module attribute, so that the tracer's wrappers see the call, and then checks
what the call produced against the values in ``reference.json``. Exact
results must match to ``REL_TOL``; Monte Carlo estimates must lie within
``Z`` standard errors of the exact value, so that a change of random stream
is not a failure.

Inputs depend on the benchmark seed and the pass number only. Models and
boxes are fixed; why each was chosen is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pjmp.cli
import pjmp.model
import pjmp.simulate

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"
REFERENCE = HERE / "reference.json"

REL_TOL = 1e-9  # exact values against their references
Z = 5.0  # standard errors allowed between an estimate and its exact value
# fixed ceilings on the stationary solve's own diagnostics
STATIONARY_CEILINGS = {"residual": 1e-12, "dense_tv": 1e-9, "power_tv": 1e-9}

# certify: box arguments per model; verify-lyapunov sweeps its own box
CERTIFY = {
    "ring2": {"box": [], "lyapunov_box": []},
    "rand3": {"box": ["--m-box", "10"], "lyapunov_box": ["--m-box", "40"]},
}
CERTIFY_COMMANDS = ("verify-lyapunov", "stationary", "gap", "verify-poincare", "concentration")
SEMIGROUP = {"ring2": [], "rand3": ["--m-box", "8"]}
SUITE_SEEDS = 8  # semigroup suite seeds with committed references
ENSEMBLE = {"model": "rand4", "t": 2.0, "replicas": 10000}
PATH = {"model": "rand3", "horizon": 15000.0, "burn_in": 50.0, "r_grid": [2.0, 3.0, 4.0, 5.0, 6.0]}


@dataclass
class Op:
    """One call into pjmp and the check of its outputs.

    ``check`` takes what ``run`` returned and returns the failed checks as
    messages; an empty list means the operation is correct.
    """

    name: str
    run: Callable
    check: Callable


@dataclass
class Pass:
    ops: list
    nominal_events: float  # firings the inputs call for, 0 without simulation


def cli_seed(seed: int, k: int) -> int:
    """Seed handed to pjmp in pass k of a run seeded with ``seed``."""
    return seed * 1000 + k


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def model_path(name: str) -> str:
    return str(MODELS / f"{name}.json")


class Checks:
    """Collects failed checks as one-line messages."""

    def __init__(self):
        self.failures = []

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(f"{what} failed")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got, want) -> None:
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                self.failures.append(f"{what}: got {got!r}, want {want!r}")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                self.close(f"{what}[{i}]", g, w)
            return
        if got is None or not abs(got - want) <= REL_TOL * abs(want):
            self.failures.append(f"{what}: got {got!r}, want {want!r} to {REL_TOL} relative")

    def below(self, what: str, got, ceiling: float) -> None:
        if got is None or not got <= ceiling:
            self.failures.append(f"{what}: {got!r} above ceiling {ceiling}")

    def within(self, what: str, got: float, exact: float, std_error: float) -> None:
        if not abs(got - exact) <= Z * std_error:
            self.failures.append(
                f"{what}: {got!r} is more than {Z} standard errors ({std_error!r}) from {exact!r}"
            )


def run_cli(argv: list):
    """pjmp.cli.main(argv) in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pjmp.cli.main(argv)
    return code, out.getvalue()


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _cli_op(name: str, argv: list, out_dir: Path, check_doc: Callable, verdict: bool) -> Op:
    """A CLI command whose report must exist, exit 0 and (if ``verdict``) PASS."""

    def check(result):
        code, stdout = result
        c = Checks()
        c.equal("exit code", code, 0)
        if verdict:
            c.true("PASS on stdout", "PASS" in stdout)
        if code == 0:
            check_doc(c, out_dir)
        return c.failures

    return Op(name, lambda: run_cli(argv + ["--out", str(out_dir)]), check)


def _certify_ops(seed: int, k: int, out: Path, ref: dict) -> list:
    ops = []
    for model, boxes in CERTIFY.items():
        want = ref["certify"][model]
        path = model_path(model)

        def lyapunov(c, d, want=want):
            doc = _read(d, "lyapunov.json")
            c.equal("verdict", doc["verdict"], "PASS")
            c.equal("n_states", doc["n_states"], want["lyapunov_states"])

        def stationary(c, d, want=want):
            doc = _read(d, "stationary.json")
            c.equal("dims", doc["dims"], want["dims"])
            c.close("mean_total_potential", doc["mean_total_potential"], want["mean_total_potential"])
            for key, ceiling in STATIONARY_CEILINGS.items():
                c.below(key, doc[key], ceiling)

        def gap(c, d, want=want):
            doc = _read(d, "gap.json")
            c.close("C_opt", doc["C_opt"], want["C_opt"])

        def poincare(c, d, want=want):
            doc = _read(d, "poincare.json")
            c.equal("verdict", doc["verdict"], "PASS")
            c.close("C_opt", doc["C_opt"], want["C_opt"])
            c.close("path_c0", doc["path_c0"], want["path_c0"])
            c.equal("path_max_length", doc["path_max_length"], want["path_max_length"])

        def concentration(c, d, want=want):
            doc = _read(d, "concentration.json")
            c.equal("verdict", doc["verdict"], "PASS")
            c.close("lambda", doc["lambda"], want["lambda"])
            c.close("C0", doc["C0"], want["C_opt"])

        checks = {
            "verify-lyapunov": (lyapunov, True),
            "stationary": (stationary, False),
            "gap": (gap, False),
            "verify-poincare": (poincare, True),
            "concentration": (concentration, True),
        }
        for command in CERTIFY_COMMANDS:
            box = boxes["lyapunov_box"] if command == "verify-lyapunov" else boxes["box"]
            argv = [command, path, "--seed", str(cli_seed(seed, k))] + box
            check_doc, verdict = checks[command]
            ops.append(_cli_op(f"{command}:{model}", argv, out / model / command, check_doc, verdict))
    return ops


def _semigroup_ops(seed: int, k: int, out: Path, ref: dict) -> list:
    suite_seed = (seed + k) % SUITE_SEEDS
    ops = []
    for model, box in SEMIGROUP.items():
        want = ref["semigroup"][model][str(suite_seed)]

        def report(c, d, want=want):
            doc = _read(d, "semigroup.json")
            c.equal("verdict", doc["verdict"], "PASS")
            for key in ("t_grid", "d1_hat", "d2_hat"):
                c.close(key, doc[key], want[key])

        argv = ["semigroup-report", model_path(model), "--seed", str(suite_seed)] + box
        ops.append(_cli_op(f"semigroup-report:{model}", argv, out / model, report, True))
    return ops


def _ensemble_pass(seed: int, k: int, out: Path, ref: dict) -> Pass:
    want = ref["mc-ensemble"]
    if {key: want[key] for key in ENSEMBLE} != ENSEMBLE:
        raise ValueError("reference.json was made for another mc-ensemble workload")
    replicas = ENSEMBLE["replicas"]

    def estimates(c, d):
        doc = _read(d, "estimates.json")
        for key, exact in (
            ("total_potential_mean", want["mean_total"]),
            ("total_potential_variance", want["var_total"]),
            ("firing_effort", want["firing_effort"]),
        ):
            est = doc[key]
            c.equal(f"{key}.n", est["n"], replicas)
            c.within(key, est["value"], exact, est["std_error"])

    argv = ["simulate", model_path(ENSEMBLE["model"]), "--seed", str(cli_seed(seed, k)),
            "--t", repr(ENSEMBLE["t"]), "--replicas", str(replicas)]
    op = _cli_op("simulate:rand4", argv, out, estimates, False)
    # two estimators of R replicas each, plus the one sample path
    return Pass([op], (2 * replicas + 1) * want["firing_effort"])


def _path_pass(seed: int, k: int, ref: dict) -> Pass:
    want = ref["mc-path"]
    if {key: want[key] for key in PATH} != PATH:
        raise ValueError("reference.json was made for another mc-path workload")
    net = pjmp.model.network_from_json(model_path(PATH["model"]))
    horizon, burn_in, r_grid = PATH["horizon"], PATH["burn_in"], PATH["r_grid"]
    s = cli_seed(seed, k)

    def path():
        return pjmp.simulate.simulate_path(net, net.zero_state(), horizon, s)

    def check_path(traj):
        c = Checks()
        c.true("events inside the horizon", not traj.events or traj.events[-1].time <= horizon)
        c.within("event count", len(traj.events), horizon * want["mean_rate"], want["count_sd"])
        return c.failures

    def average():
        return pjmp.simulate.ergodic_average(net, _total, burn_in, horizon, s)

    def check_average(est):
        c = Checks()
        c.within("ergodic average of the total", est.mean, want["mean_total"], est.std_error)
        return c.failures

    def tail():
        return pjmp.simulate.empirical_tail(net, r_grid, burn_in, horizon, s)

    def check_tail(fractions):
        c = Checks()
        for r, got, exact, sd in zip(r_grid, fractions, want["tail"], want["tail_sd"]):
            c.within(f"tail at r={r}", float(got), exact, sd)
        return c.failures

    ops = [
        Op("simulate_path:rand3", path, check_path),
        Op("ergodic_average:rand3", average, check_average),
        Op("empirical_tail:rand3", tail, check_tail),
    ]
    return Pass(ops, 3 * horizon * want["mean_rate"])


def _total(x) -> float:
    return x.total()


def build(workload: str, seed: int, k: int, out: Path, ref: dict) -> Pass:
    """The operations of pass k of ``workload`` in a run seeded with ``seed``."""
    if workload == "certify":
        return Pass(_certify_ops(seed, k, out, ref), 0.0)
    if workload == "semigroup":
        return Pass(_semigroup_ops(seed, k, out, ref), 0.0)
    if workload == "mc-ensemble":
        return _ensemble_pass(seed, k, out, ref)
    if workload == "mc-path":
        return _path_pass(seed, k, ref)
    raise ValueError(f"unknown workload {workload!r}")


def models_of(workload: str) -> list:
    if workload == "certify":
        return list(CERTIFY)
    if workload == "semigroup":
        return list(SEMIGROUP)
    if workload == "mc-ensemble":
        return [ENSEMBLE["model"]]
    return [PATH["model"]]
