"""pjmp benchmark: one workload, timed in passes, outputs checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. pjmp is imported from ``src/`` of that
checkout by absolute path; it need not be installed.

Each pass runs in its own fresh interpreter (bench/child.py), one after
another, for about ``--seconds`` and at least ``MIN_PASSES`` passes. Before
them one more interpreter only sets up, which leaves the byte code compiled
and the page cache warm, as a user's second run finds them.

``--trace 0`` reports the end-to-end metrics: the mean ``wall_s`` of a pass
(from its first call into pjmp until every output is produced and checked),
and the medians of ``peak_rss_mb`` (the pass's process) and ``setup_s``
(start of that process until pjmp.cli is imported and the models loaded).
``--trace 1`` alternates untraced and traced passes and reports the layer
metrics of the traced ones (means, so that they add up to the traced
``wall_s``), the tracing overhead, and ``simulate.events_per_s`` over the
untraced passes.

The last line of standard output is the JSON result; the lines before it
give each metric with its unit and the provenance of the run. The full
record, with every pass, is written to .bench_run/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORKLOADS = ("certify", "semigroup", "mc-ensemble", "mc-path")
MIN_PASSES = {0: 3, 1: 4}  # trace 1: at least two untraced and two traced
MAX_PASSES = 100
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over pjmp's source files, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pjmp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PJMP_THREADS", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


class PassFailed(RuntimeError):
    pass


def run_child(cfg: dict, env: dict, deadline: float) -> dict:
    cfg = dict(cfg, src=str(SRC), spawned_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {cfg['pass']} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise PassFailed(f"pass {cfg['pass']} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_passes(args, run_dir: Path) -> list:
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": args.workload, "seed": args.seed, "trace": 0}
    run_child(dict(base, **{"pass": -1, "out": str(run_dir / "warmup"), "setup_only": True}), env, deadline)
    passes = []
    begin = time.monotonic()
    while len(passes) < MAX_PASSES:
        # stop before a pass that, at the mean cost so far, would end past --seconds
        spent = time.monotonic() - begin
        if len(passes) >= MIN_PASSES[args.trace] and spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
        k = len(passes)
        out = run_dir / f"pass{k}"
        traced = bool(args.trace and k % 2 == 1)
        cfg = dict(base, **{"pass": k, "out": str(out), "setup_only": False, "trace": traced})
        result = run_child(cfg, env, deadline)
        shutil.rmtree(out, ignore_errors=True)
        result["traced"] = traced
        passes.append(result)
    return passes


def end_to_end(passes: list) -> dict:
    """The mean wall_s of the passes; medians of the other metrics.

    On a shared host the CPU's speed can change by a third for spells of
    seconds to minutes. The mean over a run's passes spreads least from run
    to run: it weighs a short spell by its length, where the median or the
    minimum of a handful of passes jumps with it.
    """
    out = {name: statistics.median(p[name] for p in passes) for name in END_TO_END}
    out["wall_s"] = statistics.fmean(p["wall_s"] for p in passes)
    return out


def per_layer(passes: list) -> dict:
    """Means over the traced passes, plus the overhead against the untraced ones."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = traced[0]["layers"].keys()
    counts = [n for n in names if layer_unit(n) == "count"]
    for p in traced[1:]:
        for n in counts:
            if p["layers"][n] != traced[0]["layers"][n]:
                raise PassFailed(f"count {n} differs between passes")
    out = {
        n: traced[0]["layers"][n] if n in counts else statistics.fmean(p["layers"][n] for p in traced)
        for n in names
    }
    traced_wall = statistics.fmean(p["wall_s"] for p in traced)
    plain_wall = statistics.fmean(p["wall_s"] for p in plain)
    covered = sum(v for n, v in out.items() if layer_unit(n) == "s" and n != "trace.glue_s")
    if abs(covered + out["trace.glue_s"] - traced_wall) > 1e-6 * traced_wall:
        raise PassFailed("layer self times and glue do not add up to the traced wall time")
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["simulate.nominal_events"] = traced[0]["nominal_events"]
    out["simulate.events_per_s"] = traced[0]["nominal_events"] / plain_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "pjmp" / "__init__.py").is_file():
        print(f"error: no pjmp package under {SRC}; run from a pjmp checkout", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        passes = run_passes(args, run_dir)
        metrics = per_layer(passes) if args.trace else end_to_end(passes)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failed_ops = [(i, op) for i, p in enumerate(passes) for op in p["ops"] if op["failures"]]
    for i, op in failed_ops:
        print(f"# pass {i} {op['op']}: {'; '.join(op['failures'])}", file=sys.stderr)
    provenance = dict(
        passes[0]["provenance"],
        git_commit=git_commit(),
        source_sha256=source_digest(),
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        passes=len(passes),
    )
    units = {n: END_TO_END.get(n) or layer_unit(n) for n in metrics}
    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in sorted(metrics.items())},
    }
    record = {"args": vars(args), "provenance": provenance, "passes": passes, "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for n, v in sorted(metrics.items()):
        print(f"# {args.workload} {n} = {v!r} {units[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
