"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass with one JSON argument:
``{"workload", "seed", "pass", "trace", "out", "src", "spawned_at",
"setup_only"}``. ``spawned_at`` is the parent's ``time.monotonic()`` just
before it started the process; Linux's monotonic clock is system-wide, so the
difference at the end of set-up is the set-up time of this interpreter:
start-up, importing pjmp.cli, loading the models and building the pass.

The pass is timed from its first call into pjmp until every output has been
produced and checked. The result is printed as one JSON line.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import pjmp
import scipy
import tracing
import workloads  # imports pjmp.cli: set-up cost that every CLI user pays

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def provenance() -> dict:
    return {
        "pjmp_file": pjmp.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "PJMP_THREADS": os.environ.get("PJMP_THREADS"),
    }


def run_ops(ops, tracer) -> list:
    failures = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        try:
            result = op.run()
            with tracer.span(tracing.CHECK_SPAN) if tracer else contextlib.nullcontext():
                failed = op.check(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed = [f"raised {type(exc).__name__}: {exc}"]
        failures.append({"op": op.name, "failures": failed})
    return failures


def main(cfg: dict) -> dict:
    src = Path(cfg["src"])
    if Path(pjmp.__file__).resolve().parent != src / "pjmp":
        raise SystemExit(f"imported pjmp from {pjmp.__file__}, not from {src}")
    if os.environ.get("PJMP_THREADS") is not None:
        raise SystemExit("PJMP_THREADS must be unset")

    for model in workloads.models_of(cfg["workload"]):
        pjmp.model.network_from_json(workloads.model_path(model))
    bench_pass = workloads.build(
        cfg["workload"], cfg["seed"], cfg["pass"], Path(cfg["out"]), workloads.load_reference()
    )
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - cfg["spawned_at"]
    if cfg["setup_only"]:
        return {"setup_s": setup_s}

    start = time.perf_counter_ns()
    ops = run_ops(bench_pass.ops, tracer)
    wall_ns = time.perf_counter_ns() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "nominal_events": bench_pass.nominal_events,
        "provenance": provenance(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall_ns)
        trace_file = Path(cfg["out"]).parent / f"trace-pass{cfg['pass']}.json"
        trace_file.write_text(json.dumps(tracer.records()), encoding="utf-8")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
