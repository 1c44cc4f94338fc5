"""Batch command-line front end.

One command per process; all randomness flows from --seed, an integer in
[0, 2**64) (default 0). Each ``cmd_*`` function only computes: it returns a
Report of the files it would write, its stdout line and its exit code.
``_write`` then builds the run manifest (whose ``outputs`` are the names of
the files handed to it), renders every file with the manifest's hash
embedded, and only then makes --out, writes the files and prints. A command
that raises, or a file that cannot be rendered, writes nothing. JSON
reports are strict JSON with sorted keys: a report that would hold an inf or
a nan is refused (exit 2) and nothing is written. CSV cells are plain
decimal ints and float reprs. A rate matrix is written in MatrixMarket
coordinate format.

In-process callers of ``main`` (scripts, notebooks, the tests) reuse the
last solved chain: ``_solved_law`` keeps one stationary law, keyed by the
model's content, the resolved box and the state cap, and a command on the
same chain reads it, with its gap, instead of solving again. The law's
arrays are read-only. A solve that raises is not kept. A console run is
one command per process and solves once either way.

Exit codes: 0 success or PASS, 2 usage, bad input or a numerical failure (a
solver that did not converge, out of memory), 3 degenerate model, 4 a
verdict failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from io import BytesIO
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.io import mmwrite

from . import __version__
from .certificates import (
    admissible_lambda,
    path_method_C0,
    semigroup_poincare_report,
    talagrand_verdict,
)
from .model import (
    check_lyapunov_pointwise,
    lyapunov_constants,
    network_from_json,
    network_to_json,
)
from .simulate import estimate_ensemble, simulate_path
from .spectral import (
    DegenerateModelError,
    stationary,
    variance_and_energy,
)
from .statespace import DEFAULT_MAX_STATES, assemble_generator, enumerate_states

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERDICT_FAIL = 4
# floats in one block of verify-poincare's functions (512 KiB): at rand3 m10
# one 1000-function block held 19 MB of temporaries and ran no faster
POINCARE_BLOCK_FLOATS = 2**16


class Report(NamedTuple):
    """What a command computed: the files to write, its exit code and its line.

    ``files`` maps each file name to a JSON payload (dict), a CSV column
    header with its rows (tuple), or a sparse rate matrix (MatrixMarket).
    """

    files: dict
    code: int = EXIT_OK
    stdout: str = ""


def _cell(value) -> str:
    return str(int(value)) if isinstance(value, (int, np.integer)) else repr(float(value))


def _write(args, net, report: Report) -> int:
    """Render every file under one manifest, make --out, write, print, return the exit code."""
    model_doc = json.dumps(network_to_json(net), sort_keys=True)
    manifest = {
        "command": args.command,
        "model": Path(args.model).name,
        "model_sha256": hashlib.sha256(model_doc.encode("utf-8")).hexdigest(),
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in {"func", "out", "model", "command"} and v is not None
        },
        "tool_version": __version__,
        "outputs": sorted(report.files),
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"), allow_nan=False)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    texts = {}
    for name, content in report.files.items():
        if isinstance(content, dict):
            doc = {"manifest": manifest, "manifest_hash": digest, **content}
            try:
                texts[name] = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
            except ValueError as exc:  # strict JSON has no inf or nan
                raise ValueError(f"{name} would hold a non-finite value ({exc})") from None
        elif isinstance(content, tuple):
            header, rows = content
            lines = [f"# manifest_hash={digest}\n{header}\n"]
            lines += [",".join(map(_cell, row)) + "\n" for row in rows]
            texts[name] = "".join(lines)
        else:
            buf = BytesIO()
            mmwrite(buf, content, comment=digest)
            texts[name] = buf.getvalue().decode("ascii")
    # every report is rendered before --out is touched, so a refused one writes nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    if report.stdout:
        print(report.stdout)
    return report.code


def _verdict(passed: bool) -> tuple:
    return ("PASS", EXIT_OK) if passed else ("FAIL", EXIT_VERDICT_FAIL)


def _solve(args, net):
    """Stationary law of a command's box; it carries its generator and space."""
    m = lyapunov_constants(net, args.alpha).m
    m_box = float(args.m_box if args.m_box is not None else m)
    return _solved_law(net, m_box, args.max_states)


@functools.lru_cache(maxsize=1)
def _solved_law(net, m_box: float, max_states: int):
    """The law of net's box, kept until a command on another chain replaces it.

    The law is a pure function of the arguments (the network hashes by
    content), and every reader is handed the same one: its arrays are
    read-only, and what it computes when read, such as its gap, is kept.
    """
    space = enumerate_states(net, net.zero_state(), m_box, max_states=max_states)
    return stationary(assemble_generator(net, space))


def _exports(args, gen) -> dict:
    """generator.mtx and states.csv, when --export-generator asks for them."""
    if not args.export_generator:
        return {}
    space = gen.space
    cols = ",".join(f"n{i}" for i in range(space.net.n_neurons))
    den = space.net.denominator
    rows = ((k, *row, den) for k, row in enumerate(space.numerators.tolist()))
    return {
        "generator.mtx": gen.matrix,
        "states.csv": (f"index,{cols},denominator", rows),
    }


def _estimate_doc(est) -> dict:
    return dict(value=est.mean, std_error=est.std_error, n=est.n_samples, seed=est.seed)


def cmd_simulate(args, net) -> Report:
    if args.replicas < 2:
        raise ValueError("--replicas must be at least 2")
    traj = simulate_path(net, net.zero_state(), args.t, args.seed)
    total = lambda y: y.total()
    mean_est, var_est, effort = estimate_ensemble(
        net, total, net.zero_state(), args.t, args.replicas, args.seed
    )
    cols = ",".join(f"n{i}" for i in range(net.n_neurons))
    events = traj.events  # columns; one row per firing, read without building events
    pre = map(events.states.__getitem__, events.state_ids.tolist())
    rows = [
        (t, i, *x.numerators, x.denominator)
        for t, i, x in zip(events.times.tolist(), events.neurons.tolist(), pre)
    ]
    return Report({
        "trajectory.csv": (f"time,neuron,{cols},denominator", rows),
        "estimates.json": {
            "n_events": len(traj.events),
            "total_potential_mean": _estimate_doc(mean_est),
            "total_potential_variance": _estimate_doc(var_est),
            "firing_effort": _estimate_doc(effort),
        },
    })


def cmd_stationary(args, net) -> Report:
    mu = _solve(args, net)
    space = mu.space
    return Report({
        "stationary.json": {
            "dims": {"states": len(space), "support": int(len(mu.support))},
            "m_box": space.m_box,
            "residual": mu.residual,
            "dense_tv": mu.dense_tv,
            "power_tv": mu.power_tv,
            "mean_total_potential": mu.expectation(space.totals()),
        },
        "mu.csv": ("index,probability", enumerate(mu.probabilities)),
        **_exports(args, mu.generator),
    })


def cmd_gap(args, net) -> Report:
    mu = _solve(args, net)
    space = mu.space
    gap = mu.gap
    return Report({
        "gap.json": {
            "C_opt": gap.c_opt,
            "gap": gap.gap,
            "method": gap.method,
            "residuals": {"stationary": mu.residual, "eigenpair": gap.residual},
            "dims": {"states": len(space), "support": int(len(mu.support))},
        },
        **_exports(args, mu.generator),
        "eigenfunction.csv": ("index,value", enumerate(gap.optimizer)),
    })


def cmd_verify_lyapunov(args, net) -> Report:
    cert = lyapunov_constants(net, args.alpha)
    m_box = args.m_box if args.m_box is not None else 2.0 * cert.m
    space = enumerate_states(net, net.zero_state(), m_box, max_states=args.max_states)
    min_slack = float(np.min(check_lyapunov_pointwise(net, cert, space.numerators)))
    verdict, code = _verdict(min_slack >= -1e-12)
    doc = {
        **dataclasses.asdict(cert),
        "m_box": float(m_box),
        "n_states": len(space),
        "min_slack": min_slack,
        "verdict": verdict,
    }
    line = f"lyapunov drift: {verdict} (min slack {min_slack:.3e})"
    return Report({"lyapunov.json": doc}, code, line)


def cmd_verify_poincare(args, net) -> Report:
    if args.n_functions < 1:
        raise ValueError(f"--n-functions must be at least 1, got {args.n_functions}")
    mu = _solve(args, net)
    gap = mu.gap

    rng = np.random.default_rng(args.seed)
    n = mu.generator.dimension
    block = max(POINCARE_BLOCK_FLOATS // n, 1)
    worst_excess = -float("inf")
    sup_rayleigh = 0.0
    for start in range(0, args.n_functions, block):
        # row j of the draw is the j-th function, as one draw per function gives
        fs = rng.standard_normal((min(block, args.n_functions - start), n)).T
        var, energy = variance_and_energy(mu, fs)
        worst_excess = max(worst_excess, float(np.max(var - gap.c_opt * energy)))
        moving = energy > 0
        if moving.any():
            sup_rayleigh = max(sup_rayleigh, float(np.max(var[moving] / energy[moving])))
    var_star, energy_star = variance_and_energy(mu, gap.optimizer)
    achieved = var_star / energy_star
    path = path_method_C0(mu)
    checks = {
        "variance_dominated": bool(worst_excess <= 1e-12),
        "sup_rayleigh_below_C_opt": bool(sup_rayleigh <= gap.c_opt + 1e-12),
        "optimizer_achieves_C_opt": bool(abs(achieved - gap.c_opt) <= 1e-6 * gap.c_opt),
        "path_bound_dominates": bool(path.c0 >= gap.c_opt),
    }
    verdict, code = _verdict(all(checks.values()))
    doc = {
        "C_opt": gap.c_opt,
        "sup_rayleigh": sup_rayleigh,
        "worst_excess": worst_excess,
        "optimizer_ratio": achieved,
        "path_c0": path.c0,
        "path_max_length": path.max_path_length,
        "n_functions": args.n_functions,
        "checks": checks,
        "stationary_residual": mu.residual,
        "verdict": verdict,
    }
    return Report({"poincare.json": doc}, code, f"poincare: {verdict} (C_opt {gap.c_opt:.6g})")


def cmd_concentration(args, net) -> Report:
    mu = _solve(args, net)
    gap = mu.gap
    cert = admissible_lambda(mu, gap.c_opt, margin=args.lambda_margin)
    r_grid = args.r_grid if args.r_grid is not None else list(range(1, 13))
    report = talagrand_verdict(cert, mu, r_grid)
    verdict, code = _verdict(report.passed)
    rows = [dataclasses.asdict(row) for row in report.rows]
    doc = {
        "C0": cert.c0,
        "C3": cert.c3,
        "N0": cert.n0,
        "lambda": cert.lam,
        "lambda0": cert.lam0,
        "q": cert.q,
        "mu_F": report.mu_F,
        "rows": rows,
        "stationary_residual": mu.residual,
        "verdict": verdict,
    }
    columns = [name for name in rows[0] if name != "ok"]  # the row's fields, in order
    tails = [[row[name] for name in columns] for row in rows]
    files = {"concentration.json": doc, "tails.csv": (",".join(columns), tails)}
    line = f"concentration: {verdict} (lambda {cert.lam:.6g}, lambda0 {cert.lam0:.6g})"
    return Report(files, code, line)


def cmd_semigroup_report(args, net) -> Report:
    mu = _solve(args, net)
    report = semigroup_poincare_report(
        mu,
        t_grid=args.t_grid,
        suite_size=args.suite_size,
        seed=args.seed,
        inner_frac=args.inner_frac,
        eps=args.eps,
    )
    verdict, code = _verdict(report.passed)
    doc = dataclasses.asdict(report)
    doc["checks"] = {
        "d1_growth_cap": doc.pop("d1_cap_ok"),
        "d2_growth_cap": doc.pop("d2_cap_ok"),
        "outside_one_term": doc.pop("outside_one_term_ok"),
    }
    # the lhs reads mu(P_t f^2) as mu(f^2), which rests on mu being stationary
    doc["stationary_residual"] = mu.residual
    doc["verdict"] = verdict
    line = f"semigroup report: {verdict} (slopes {report.slope_d1}, {report.slope_d2})"
    return Report({"semigroup.json": doc}, code, line)


def _float_list(text: str):
    return [float(tok) for tok in text.split(",") if tok.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="pjmp",
        description="Simulation, spectra, and concentration certificates for the "
        "reset-and-increment spiking network model.",
    )
    parser.add_argument("--version", action="version", version=f"pjmp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, box=True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("model", help="model JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed in [0, 2**64) (default 0)")
        if box:
            p.add_argument("--alpha", type=float, default=0.8, help="drift trade-off in (0,1)")
            p.add_argument("--m-box", type=float, default=None, dest="m_box",
                           help="coordinate cap of the truncation box (default: drift m)")
            p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES, dest="max_states")
        return p

    p = command("simulate", cmd_simulate, "trajectory plus Monte Carlo estimates", box=False)
    p.add_argument("--t", type=float, default=10.0, help="horizon")
    p.add_argument("--replicas", type=int, default=1000)

    for name, func, text in (
        ("stationary", cmd_stationary, "stationary law of the truncated chain"),
        ("gap", cmd_gap, "optimal variance-to-energy constant"),
    ):
        p = command(name, func, text)
        p.add_argument("--export-generator", action="store_true", dest="export_generator",
                       help="also write generator.mtx and states.csv")

    command("verify-lyapunov", cmd_verify_lyapunov, "pointwise drift inequality sweep")

    p = command("verify-poincare", cmd_verify_poincare, "variance domination checks")
    p.add_argument("--n-functions", type=int, default=1000, dest="n_functions")

    p = command("concentration", cmd_concentration, "certified exponential tail bound")
    p.add_argument("--lambda-margin", type=float, default=0.1, dest="lambda_margin")
    p.add_argument("--r-grid", type=_float_list, default=None, dest="r_grid",
                   help="comma-separated tail levels (default 1..12)")

    p = command("semigroup-report", cmd_semigroup_report, "measured weighted-inequality constants")
    p.add_argument("--eps", type=float, default=1e-12, help="series truncation error")
    p.add_argument("--t-grid", type=_float_list, default=None, dest="t_grid",
                   help="comma-separated times, all >= t1 (default t1*{1,2,4,8})")
    p.add_argument("--suite-size", type=int, default=50, dest="suite_size")
    p.add_argument("--inner-frac", type=float, default=0.5, dest="inner_frac")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {args.seed}")
        net = network_from_json(args.model)
        return _write(args, net, args.func(args, net))
    except DegenerateModelError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, KeyError, OSError, json.JSONDecodeError, RuntimeError) as exc:
        # RuntimeError here is the state-space cap or a solver that did not
        # converge; DegenerateModelError, a subclass, is caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
