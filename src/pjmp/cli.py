"""Batch command-line front end.

One command per process; all randomness flows from --seed, an integer in
[0, 2**64) (default 0); every output file carries the hash of its run
manifest so results can be traced back to the exact invocation and model
content. Exit codes: 0 success or PASS, 2 usage, bad input or a numerical
failure (a solver that did not converge, out of memory), 3 degenerate
model, 4 a verdict failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    admissible_lambda,
    ConcentrationCertificate,
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
    poincare_constant,
    stationary,
    variance_and_energy,
)
from .statespace import (
    assemble_generator,
    enumerate_states,
    export_matrix_market,
    export_state_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERDICT_FAIL = 4


def _manifest(args, net, command: str, outputs: list) -> dict:
    skip = {"func", "out", "model", "command"}
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    model_doc = json.dumps(network_to_json(net), sort_keys=True)
    return {
        "command": command,
        "model": Path(args.model).name,
        "model_sha256": hashlib.sha256(model_doc.encode("utf-8")).hexdigest(),
        "parameters": params,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    }


def _manifest_hash(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_json(path: Path, manifest: dict, payload: dict) -> None:
    doc = {"manifest": manifest, "manifest_hash": _manifest_hash(manifest)}
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _csv_header(manifest: dict) -> str:
    return f"# manifest_hash={_manifest_hash(manifest)}\n"


def _load(args):
    net = network_from_json(args.model)
    alpha = args.alpha
    cert = lyapunov_constants(net, alpha)
    m_box = args.m_box if args.m_box is not None else cert.m
    return net, cert, float(m_box)


def _solve(args):
    """Model, enumerated box, generator and stationary law of a command."""
    net, _cert, m_box = _load(args)
    space = enumerate_states(net, net.zero_state(), m_box, max_states=args.max_states)
    gen = assemble_generator(net, space)
    return net, space, gen, stationary(gen)


def _maybe_export_generator(args, manifest, space, gen, out: Path):
    if args.export_generator:
        export_matrix_market(gen, out / "generator.mtx", comment=_manifest_hash(manifest))
        export_state_table(space, out / "states.csv", header_comment=f"manifest_hash={_manifest_hash(manifest)}")


def _estimate_doc(est) -> dict:
    return dict(value=est.mean, std_error=est.std_error, n=est.n_samples, seed=est.seed)


def cmd_simulate(args) -> int:
    net = network_from_json(args.model)
    if args.replicas < 2:
        raise ValueError("--replicas must be at least 2")
    # simulate_path refuses a negative or non-finite --t before anything is written
    traj = simulate_path(net, net.zero_state(), args.t, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, net, "simulate", ["trajectory.csv", "estimates.json"])

    lines = [_csv_header(manifest)]
    cols = ",".join(f"n{i}" for i in range(net.n_neurons))
    lines.append(f"time,neuron,{cols},denominator\n")
    for ev in traj.events:
        nums = ",".join(str(v) for v in ev.pre_state.numerators)
        lines.append(f"{ev.time!r},{ev.neuron},{nums},{ev.pre_state.denominator}\n")
    (out / "trajectory.csv").write_text("".join(lines), encoding="utf-8")

    total = lambda y: y.total()
    mean_est, var_est, effort = estimate_ensemble(
        net, total, net.zero_state(), args.t, args.replicas, args.seed
    )
    _write_json(
        out / "estimates.json",
        manifest,
        {
            "n_events": len(traj.events),
            "total_potential_mean": _estimate_doc(mean_est),
            "total_potential_variance": _estimate_doc(var_est),
            "firing_effort": _estimate_doc(effort),
        },
    )
    return EXIT_OK


def cmd_stationary(args) -> int:
    net, space, gen, mu = _solve(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, net, "stationary", ["stationary.json", "mu.csv"])
    _maybe_export_generator(args, manifest, space, gen, out)
    _write_json(
        out / "stationary.json",
        manifest,
        {
            "dims": {"states": len(space), "support": int(len(mu.support))},
            "m_box": space.m_box,
            "residual": mu.residual,
            "dense_tv": mu.dense_tv,
            "power_tv": mu.power_tv,
            "mean_total_potential": mu.expectation(space.totals()),
        },
    )
    lines = [_csv_header(manifest), "index,probability\n"]
    for k, v in enumerate(mu.probabilities):
        lines.append(f"{k},{v!r}\n")
    (out / "mu.csv").write_text("".join(lines), encoding="utf-8")
    return EXIT_OK


def cmd_gap(args) -> int:
    net, space, gen, mu = _solve(args)
    gap = poincare_constant(gen, mu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["gap.json"] + ([] if gap.degenerate else ["eigenfunction.csv"])
    manifest = _manifest(args, net, "gap", outputs)
    _maybe_export_generator(args, manifest, space, gen, out)
    _write_json(
        out / "gap.json",
        manifest,
        {
            "degenerate": gap.degenerate,
            "C_opt": gap.c_opt,
            "gap": gap.gap,
            "method": gap.method,
            "residuals": {"stationary": mu.residual, "eigenpair": gap.residual},
            "dims": {"states": len(space), "support": int(len(mu.support))},
        },
    )
    if gap.degenerate:
        print("degenerate model: support has a single state; no gap defined", file=sys.stderr)
        return EXIT_DEGENERATE
    lines = [_csv_header(manifest), "index,value\n"]
    for k, v in enumerate(gap.optimizer):
        lines.append(f"{k},{v!r}\n")
    (out / "eigenfunction.csv").write_text("".join(lines), encoding="utf-8")
    return EXIT_OK


def cmd_verify_lyapunov(args) -> int:
    net, cert, _m = _load(args)
    m_box = args.m_box if args.m_box is not None else 2.0 * cert.m
    space = enumerate_states(net, net.zero_state(), m_box, max_states=args.max_states)
    min_slack = float(np.min(check_lyapunov_pointwise(net, cert, space.numerators)))
    passed = min_slack >= -1e-12
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, net, "verify-lyapunov", ["lyapunov.json"])
    _write_json(
        out / "lyapunov.json",
        manifest,
        {
            "alpha": cert.alpha,
            "theta": cert.theta,
            "b": cert.b,
            "m": cert.m,
            "strong": cert.strong,
            "m_box": float(m_box),
            "n_states": len(space),
            "min_slack": min_slack,
            "verdict": "PASS" if passed else "FAIL",
        },
    )
    print(f"lyapunov drift: {'PASS' if passed else 'FAIL'} (min slack {min_slack:.3e})")
    return EXIT_OK if passed else EXIT_VERDICT_FAIL


def cmd_verify_poincare(args) -> int:
    net, space, gen, mu = _solve(args)
    gap = poincare_constant(gen, mu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, net, "verify-poincare", ["poincare.json"])
    if gap.degenerate:
        _write_json(out / "poincare.json", manifest, {"degenerate": True})
        print("degenerate model: single-state support", file=sys.stderr)
        return EXIT_DEGENERATE

    rng = np.random.default_rng(args.seed)
    worst_excess = -float("inf")
    sup_rayleigh = 0.0
    for _ in range(args.n_functions):
        f = rng.standard_normal(len(space))
        var, energy = variance_and_energy(gen, mu, f)
        worst_excess = max(worst_excess, var - gap.c_opt * energy)
        if energy > 0:
            sup_rayleigh = max(sup_rayleigh, var / energy)
    var_star, energy_star = variance_and_energy(gen, mu, gap.optimizer)
    achieved = var_star / energy_star
    path = path_method_C0(net, space, mu)
    checks = {
        "variance_dominated": bool(worst_excess <= 1e-12),
        "sup_rayleigh_below_C_opt": bool(sup_rayleigh <= gap.c_opt + 1e-12),
        "optimizer_achieves_C_opt": bool(abs(achieved - gap.c_opt) <= 1e-6 * gap.c_opt),
        "path_bound_dominates": bool(path.c0 >= gap.c_opt),
    }
    passed = all(checks.values())
    _write_json(
        out / "poincare.json",
        manifest,
        {
            "C_opt": gap.c_opt,
            "sup_rayleigh": sup_rayleigh,
            "worst_excess": worst_excess,
            "optimizer_ratio": achieved,
            "path_c0": path.c0,
            "path_max_length": path.max_path_length,
            "n_functions": args.n_functions,
            "checks": checks,
            "verdict": "PASS" if passed else "FAIL",
        },
    )
    print(f"poincare: {'PASS' if passed else 'FAIL'} (C_opt {gap.c_opt:.6g})")
    return EXIT_OK if passed else EXIT_VERDICT_FAIL


def cmd_concentration(args) -> int:
    net, space, gen, mu = _solve(args)
    gap = poincare_constant(gen, mu)
    out = Path(args.out)
    manifest = _manifest(args, net, "concentration", ["concentration.json", "tails.csv"])
    if gap.degenerate:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "concentration.json", manifest, {"degenerate": True})
        print("degenerate model: single-state support", file=sys.stderr)
        return EXIT_DEGENERATE
    adm = admissible_lambda(net, space, mu, gap.c_opt, margin=args.lambda_margin)
    cert = ConcentrationCertificate(
        c0=gap.c_opt,
        c0_source="spectral",
        c3=adm.c3,
        n0=float(max(net.row_sums)),
        lam=adm.lam,
        lam0=adm.lam0,
        q=adm.q,
        margin=adm.margin,
    )
    r_grid = args.r_grid if args.r_grid else list(range(1, 13))
    # talagrand_verdict refuses a non-finite --r-grid before anything is written
    report = talagrand_verdict(cert, space, mu, r_grid)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "concentration.json",
        manifest,
        {
            "C0": cert.c0,
            "C3": cert.c3,
            "N0": cert.n0,
            "lambda": cert.lam,
            "lambda0": cert.lam0,
            "q": cert.q,
            "mu_F": report.mu_F,
            "rows": [
                {
                    "r": row.r,
                    "exact": row.exact_tail,
                    "bound": row.bound,
                    "centered_exact": row.centered_exact,
                    "centered_bound": row.centered_bound,
                    "ok": row.ok,
                }
                for row in report.rows
            ],
            "verdict": "PASS" if report.passed else "FAIL",
        },
    )
    lines = [_csv_header(manifest), "r,exact,bound,centered_exact,centered_bound\n"]
    for row in report.rows:
        lines.append(
            f"{row.r!r},{row.exact_tail!r},{row.bound!r},"
            f"{row.centered_exact!r},{row.centered_bound!r}\n"
        )
    (out / "tails.csv").write_text("".join(lines), encoding="utf-8")
    print(f"concentration: {'PASS' if report.passed else 'FAIL'} "
          f"(lambda {cert.lam:.6g}, lambda0 {cert.lam0:.6g})")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


def cmd_semigroup_report(args) -> int:
    net, space, gen, mu = _solve(args)
    report = semigroup_poincare_report(
        net,
        space,
        gen,
        mu,
        t_grid=args.t_grid,
        suite_size=args.suite_size,
        seed=args.seed,
        inner_frac=args.inner_frac,
        eps=args.eps,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, net, "semigroup-report", ["semigroup.json"])
    _write_json(
        out / "semigroup.json",
        manifest,
        {
            "theta": report.theta,
            "t0_max": report.t0_max,
            "t1": report.t1,
            "t_grid": list(report.t_grid),
            "d1_hat": list(report.d1_hat),
            "d2_hat": list(report.d2_hat),
            "slope_d1": report.slope_d1,
            "slope_d2": report.slope_d2,
            "outside_term_max": report.outside_term_max,
            "fit_violation": report.fit_violation,
            "n_suite": report.n_suite,
            "n_outside": report.n_outside,
            "inner_box": report.inner_box,
            "enlarged_box": report.enlarged_box,
            "checks": {
                "d1_growth_cap": report.d1_cap_ok,
                "d2_growth_cap": report.d2_cap_ok,
                "outside_one_term": report.outside_one_term_ok,
            },
            "verdict": "PASS" if report.passed else "FAIL",
        },
    )
    print(f"semigroup report: {'PASS' if report.passed else 'FAIL'} "
          f"(slopes {report.slope_d1}, {report.slope_d2})")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


def _float_list(text: str):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
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
            p.add_argument("--max-states", type=int, default=200_000, dest="max_states")
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
        if not 0 <= args.seed < 2**64:  # checked before any output is written
            raise ValueError(f"seed must be in [0, 2**64), got {args.seed}")
        return args.func(args)
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
