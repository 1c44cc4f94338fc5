"""Recompute bench/reference.json, the values every benchmark check compares with.

    PYTHONPATH=$PWD/src python3 bench/make_reference.py

Run it from the repository root, and only when a workload's inputs change:
the point of the file is that a later change to pjmp is checked against
values computed before it.

- certify, semigroup: the CLI's own reports, read once at the commit that
  introduced the benchmark (semigroup for each of the ``SUITE_SEEDS`` suite
  seeds a pass can draw).
- mc-ensemble: exact E and Var of the total potential at time t, and the
  expected firing count, from zero on a box large enough that widening it
  moves each by less than a hundredth of the mean's standard error.
- mc-path: exact stationary mean of the total potential, of the total rate,
  and tail probabilities. The spread of the event count and of the tail
  fractions at the benchmark's horizon is calibrated from independent paths
  eight times shorter.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import pjmp
import workloads as w

OUT = Path(__file__).resolve().parent.parent / ".bench_run" / "reference"
ENSEMBLE_BOXES = (18.0, 22.0)  # the second must agree with the first
PATH_BOX = 12.0  # boundary mass 1.2e-9
CALIBRATION_PATHS = 32


def _cli_doc(argv: list, name: str) -> dict:
    code, _stdout = w.run_cli(argv + ["--out", str(OUT)])
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads((OUT / name).read_text(encoding="utf-8"))


def certify() -> dict:
    ref = {}
    for model, boxes in w.CERTIFY.items():
        path = w.model_path(model)
        lyap = _cli_doc(["verify-lyapunov", path] + boxes["lyapunov_box"], "lyapunov.json")
        stat = _cli_doc(["stationary", path] + boxes["box"], "stationary.json")
        gap = _cli_doc(["gap", path] + boxes["box"], "gap.json")
        poinc = _cli_doc(["verify-poincare", path] + boxes["box"], "poincare.json")
        conc = _cli_doc(["concentration", path] + boxes["box"], "concentration.json")
        for doc in (lyap, poinc, conc):
            assert doc["verdict"] == "PASS", (model, doc)
        ref[model] = {
            "lyapunov_states": lyap["n_states"],
            "dims": stat["dims"],
            "mean_total_potential": stat["mean_total_potential"],
            "C_opt": gap["C_opt"],
            "path_c0": poinc["path_c0"],
            "path_max_length": poinc["path_max_length"],
            "lambda": conc["lambda"],
        }
        print(model, ref[model], flush=True)
    return ref


def semigroup() -> dict:
    ref = {}
    for model, box in w.SEMIGROUP.items():
        ref[model] = {}
        for seed in range(w.SUITE_SEEDS):
            argv = ["semigroup-report", w.model_path(model), "--seed", str(seed)] + box
            doc = _cli_doc(argv, "semigroup.json")
            assert doc["verdict"] == "PASS", (model, seed, doc)
            ref[model][str(seed)] = {k: doc[k] for k in ("t_grid", "d1_hat", "d2_hat")}
        print(model, "suite seeds", list(ref[model]), flush=True)
    return ref


def _ensemble_exact(net, m_box: float) -> dict:
    t = w.ENSEMBLE["t"]
    space = pjmp.enumerate_states(net, net.zero_state(), m_box)
    gen = pjmp.assemble_generator(net, space)
    x0 = space.position(space.origin)
    total = space.totals()
    mean = float(pjmp.propagate_function(gen, total, t)[x0])
    second = float(pjmp.propagate_function(gen, total * total, t)[x0])
    effort = pjmp.weighted_F_exact(gen, space.total_rates(), x0, t)
    return {"mean_total": mean, "var_total": second - mean * mean, "firing_effort": effort,
            "states": len(space)}


def ensemble() -> dict:
    net = pjmp.network_from_json(w.model_path(w.ENSEMBLE["model"]))
    small, big = (_ensemble_exact(net, m) for m in ENSEMBLE_BOXES)
    se = math.sqrt(big["var_total"] / w.ENSEMBLE["replicas"])
    for key in ("mean_total", "var_total", "firing_effort"):
        drift = abs(big[key] - small[key])
        print(f"{key}: {big[key]!r} (box {ENSEMBLE_BOXES}, moved {drift:.3g}, se {se:.3g})")
        assert drift < 0.01 * se, key
    out = dict(w.ENSEMBLE)
    out.update({k: big[k] for k in ("mean_total", "var_total", "firing_effort")})
    out["box"] = ENSEMBLE_BOXES[1]
    out["box_states"] = big["states"]
    return out


def path() -> dict:
    net = pjmp.network_from_json(w.model_path(w.PATH["model"]))
    space = pjmp.enumerate_states(net, net.zero_state(), PATH_BOX)
    mu = pjmp.stationary(pjmp.assemble_generator(net, space))
    totals = space.totals()
    p = mu.probabilities
    out = dict(w.PATH)
    out["box"] = PATH_BOX
    out["mean_total"] = mu.expectation(totals)
    out["mean_rate"] = mu.expectation(space.total_rates())
    out["tail"] = [float(p[totals >= r].sum()) for r in w.PATH["r_grid"]]

    horizon, burn_in = w.PATH["horizon"], w.PATH["burn_in"]
    short = horizon / 8
    counts, tails = [], []
    for seed in range(CALIBRATION_PATHS):
        seed += 10**6  # away from the seeds the benchmark uses
        counts.append(len(pjmp.simulate_path(net, net.zero_state(), short, seed).events))
        tails.append(pjmp.empirical_tail(net, w.PATH["r_grid"], burn_in, short, seed))
    tails = np.array(tails)
    # a count's spread grows like the square root of its horizon; an
    # occupation fraction's shrinks like the square root of its window
    out["count_sd"] = statistics.stdev(counts) * math.sqrt(horizon / short)
    out["tail_sd"] = [
        float(s) for s in tails.std(axis=0, ddof=1) * math.sqrt((short - burn_in) / (horizon - burn_in))
    ]
    out["calibration"] = {"paths": CALIBRATION_PATHS, "horizon": short}
    print("path", out, flush=True)
    return out


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        ref = {
            "pjmp": pjmp.__version__,
            "certify": certify(),
            "semigroup": semigroup(),
            "mc-ensemble": ensemble(),
            "mc-path": path(),
        }
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    w.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", w.REFERENCE, file=sys.stderr)


if __name__ == "__main__":
    main()
