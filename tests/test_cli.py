"""Command-line behaviour: outputs, manifests, exit codes, determinism."""

import functools
import importlib.resources
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse.csgraph as csgraph

from conftest import NEAR_EQUAL_RATES, child_env, make_random_net
from pjmp import (
    assemble_generator,
    enumerate_states,
    network_from_json,
    network_to_json,
    poincare_constant,
    stationary,
    variance_and_energy,
)
from pjmp.statespace import SparseGenerator
from test_tables import BENCH_MODELS

RING2 = str(importlib.resources.files("pjmp") / "data" / "ring2.json")


def run_cli(args, cwd, env_extra=None, timeout=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pjmp", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExitCodes:
    def test_missing_model_file(self, tmp_path):
        proc = run_cli(["stationary", "nope.json"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error" in proc.stderr.lower()

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(["stationary", str(bad)], tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_zero_replicas_usage_error(self, tmp_path):
        proc = run_cli(["simulate", RING2, "--replicas", "0"], tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_negative_horizon_usage_error(self, tmp_path):
        proc = run_cli(["simulate", RING2, "--t", "-1"], tmp_path)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_horizon(self, tmp_path, t):
        # a non-finite --t used to run the race forever
        proc = run_cli(
            ["simulate", RING2, "--t", t, "--replicas", "2", "--out", "sim"], tmp_path, timeout=60
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: time must be finite")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-poincare", "semigroup-report"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed(self, tmp_path, command, seed):
        # the Philox key is two uint64 words; these ended in an OverflowError
        # traceback, in numpy's unnamed error, or were accepted
        proc = run_cli([command, RING2, "--seed", seed, "--out", "out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert lines == [f"error: seed must be in [0, 2**64), got {seed}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--eps", "5"],
            ["verify-poincare", "--export-generator"],
            ["simulate", "--alpha", "0.5"],
            ["simulate", "--m-box", "3"],
            ["simulate", "--max-states", "10"],
        ],
    )
    def test_option_the_command_ignores_is_refused(self, tmp_path, capsys, argv):
        import pjmp.cli as cli

        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], RING2, *argv[1:], "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_command(self, tmp_path):
        proc = run_cli(["frobnicate", RING2], tmp_path)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize(
        "command", ["gap", "verify-poincare", "concentration", "semigroup-report"]
    )
    def test_degenerate_model_exit_three(self, tmp_path, command):
        # no weights: every firing leaves the origin where it is, a one-state support
        model = tmp_path / "zero.json"
        model.write_text(
            json.dumps(
                {"n": 2, "weights": [[0, 0], [0, 0]], "intensity": {"delta": 1.5, "slope": 1.5}}
            )
        )
        proc = run_cli([command, str(model), "--out", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            "degenerate model: support has a single state; no gap defined"
        ]
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "changes",
        [
            {"weights": [5]},
            {"weights": 7},
            {"intensity": {"delta": "1/0", "slope": 1.5}},
            {"weights": [[0, "1/0"], [1, 0]]},
            {"n": 2.7},
            {"n": True, "weights": [[0]]},
            {"weights": ["01", "10"]},
            {"weights": [[0, "1e400"], [1, 0]]},
            {"intensity": {"delta": "1e400", "slope": 1.5}},
            {"weights": [[0, "1e300"], [1, 0]]},
        ],
        ids=[
            "row-not-list", "weights-not-list", "delta-1/0", "weight-1/0", "n-2.7", "n-true",
            "rows-strings", "weight-1e400", "delta-1e400", "weight-1e300",
        ],
    )
    def test_malformed_model_file(self, tmp_path, changes):
        # these ended in a TypeError, ZeroDivisionError or OverflowError
        # traceback, or n was truncated (2.7 to 2) or read as 1 (true), or
        # string rows were read digit by digit, and the run went on
        doc = {"n": 2, "weights": [[0, 1], [1, 0]], "intensity": {"delta": 1.5, "slope": 1.5}}
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({**doc, **changes}))
        proc = run_cli(["stationary", str(model), "--out", "out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", ["2", "nan"])
    def test_eps_outside_unit_interval(self, tmp_path, eps):
        proc = run_cli(["semigroup-report", RING2, "--eps", eps, "--out", "sg"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: eps must lie in (0, 1)")
        assert not (tmp_path / "sg" / "semigroup.json").exists()

    def test_suite_over_budget(self, tmp_path):
        # refused before the suite, hundreds of megabytes here, is drawn
        argv = ["semigroup-report", RING2, "--suite-size", "300000", "--out", "sg"]
        proc = run_cli(argv, tmp_path, timeout=60)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: suite size 300000 on 69 states")
        assert not (tmp_path / "sg").exists()

    @pytest.mark.parametrize(
        "case",
        [
            # totals of 2^62 plus a firing's 2^62 wrapped to -2^63, and stationary exited 0
            ("stationary", {"n": 3, "weights": [[0, 2**61, 2**61], [2**61, 0, 2**61],
                                                [2**61, 2**61, 0]]},
             ["--m-box", "4611686018427387904"], "potential numerator sums exceed"),
            # a second firing of neuron 0 wrapped the race to -2^63, refused as
            # a negative potential
            ("simulate", {"n": 2, "weights": [[0, 1], ["1/4611686018427387904", 0]]},
             ["--t", "5", "--replicas", "20"], "potential numerators exceed"),
        ],
        ids=lambda case: case[0],
    )
    def test_past_int64_refused(self, tmp_path, case):
        command, net, extra, message = case
        intensity = {"delta": 1, "slope": "1/4611686018427387904"}
        (tmp_path / "model.json").write_text(json.dumps({**net, "intensity": intensity}))
        proc = run_cli([command, "model.json", *extra, "--out", "out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message} the int64 range")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frac", ["-1", "-0.25"])
    def test_negative_inner_frac(self, tmp_path, frac):
        # a negative fraction made an empty inner box and a FAIL verdict
        argv = ["semigroup-report", RING2, "--inner-frac", frac, "--out", "sg"]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert lines == [f"error: inner_frac must be a nonnegative number, got {float(frac)!r}"]
        assert not (tmp_path / "sg").exists()

    def test_zero_inner_frac_is_the_origin(self, tmp_path):
        argv = ["semigroup-report", RING2, "--inner-frac", "0", "--out", "sg"]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "sg" / "semigroup.json").read_text())["inner_box"] == 0.0

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_functions_below_one(self, tmp_path, n):
        # no test functions left worst_excess at -inf and passed
        argv = ["verify-poincare", RING2, "--n-functions", n, "--m-box", "10", "--out", "vp"]
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert lines == [f"error: --n-functions must be at least 1, got {n}"]
        assert not (tmp_path / "vp").exists()

    def test_pass_commands_exit_zero(self, tmp_path):
        for cmd in (
            ["verify-lyapunov", RING2],
            ["verify-poincare", RING2, "--n-functions", "50"],
            ["concentration", RING2],
        ):
            proc = run_cli(cmd + ["--out", str(tmp_path / cmd[0])], tmp_path)
            assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "verify-lyapunov" / "lyapunov.json").read_text())
        assert doc["verdict"] == "PASS"
        assert (doc["theta"], doc["b"], doc["m"]) == (1.2, 10.2, 34.0)


# rates near float's range, after one round of firings or from the start
HUGE_RATES = {
    "ring-1e300": {
        "n": 2, "weights": [[0, 1], [1, 0]], "intensity": {"delta": "1e300", "slope": "1e300"}
    },
    "weights-4e18": {
        "n": 3,
        "weights": [[0, "4e18", "4e18"], ["4e18", 0, "4e18"], ["4e18", "4e18", 0]],
        "intensity": {"delta": 1, "slope": 1},
    },
}


class TestHugeRates:
    @pytest.mark.parametrize("name", sorted(HUGE_RATES))
    def test_simulation_over_the_event_budget_is_refused(self, tmp_path, name):
        # both ran without end, one of them to 3 GB before it was stopped
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(HUGE_RATES[name]))
        proc = run_cli(["simulate", str(model), "--out", "sim"], tmp_path, timeout=5)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "budget" in lines[0]
        assert not (tmp_path / "sim").exists()

    def test_replicas_past_the_event_budget_are_refused(self, tmp_path):
        # each replica draws at least one event, so 10^8 replicas at t = 0
        # pass the budget; the check missed them and allocated their finals
        argv = ["simulate", RING2, "--t", "0", "--replicas", "100000000", "--out", "sim"]
        proc = run_cli(argv, tmp_path, timeout=5)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "budget" in lines[0]
        assert not (tmp_path / "sim").exists()

    def test_series_past_its_bound_is_refused(self, tmp_path):
        # the uniformization weights underflow to 0 at t = 1e300, and the
        # series ran without end while its memory grew
        argv = ["semigroup-report", RING2, "--m-box", "10", "--t-grid", "1e300", "--out", "sg"]
        proc = run_cli(argv, tmp_path, timeout=10)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "series bound" in lines[0]
        assert not (tmp_path / "sg").exists()

    def test_stationary_residual_is_relative_to_the_rates(self, tmp_path):
        # an absolute residual read 6e283, and an unscaled dense cross-check
        # printed scipy's LinAlgWarning on stderr
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(HUGE_RATES["ring-1e300"]))
        proc = run_cli(["stationary", str(model), "--out", "st"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        doc = json.loads((tmp_path / "st" / "stationary.json").read_text())
        assert doc["residual"] <= 1e-12


class TestOutputs:
    def test_simulate_outputs(self, tmp_path):
        proc = run_cli(
            ["simulate", RING2, "--t", "3", "--replicas", "50", "--out", "sim"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        traj = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
        assert traj[0].startswith("# manifest_hash=")
        assert traj[1] == "time,neuron,n0,n1,denominator"
        doc = json.loads((tmp_path / "sim" / "estimates.json").read_text())
        assert doc["manifest"]["command"] == "simulate"
        assert doc["manifest_hash"]
        assert doc["total_potential_mean"]["n"] == 50

    def test_stationary_report_fields(self, tmp_path):
        proc = run_cli(["stationary", RING2, "--m-box", "10", "--out", "st"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "st" / "stationary.json").read_text())
        assert doc["residual"] <= 1e-10
        assert doc["dims"]["states"] == 21
        assert doc["dims"]["support"] == 20

    def test_generator_export(self, tmp_path, ring2):
        proc = run_cli(
            ["stationary", RING2, "--m-box", "5", "--export-generator", "--out", "exp"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "exp"
        digest = json.loads((out / "stationary.json").read_text())["manifest_hash"]
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        gen = assemble_generator(ring2, space)
        q = scipy.io.mmread(str(out / "generator.mtx"))
        assert q.shape == (11, 11)
        assert np.array_equal(q.toarray(), gen.matrix.toarray())
        assert abs(q.toarray().sum(axis=1)).max() <= 1e-12
        assert (out / "generator.mtx").read_text().splitlines()[1] == f"%{digest}"
        lines = (out / "states.csv").read_text().splitlines()
        assert lines[0] == f"# manifest_hash={digest}"
        assert lines[1] == "index,n0,n1,denominator"
        assert len(lines) == 2 + len(space)
        assert lines[2] == "0,0,0,1"

    def test_unrenderable_export_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # every file is rendered before --out is made, the rate matrix too
        import pjmp.cli as cli

        def failing(*args, **kwargs):
            raise ValueError("matrix cannot be rendered")

        monkeypatch.setattr(cli, "mmwrite", failing)
        out = tmp_path / "exp"
        assert cli.main(["stationary", RING2, "--export-generator", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: matrix cannot be rendered\n"
        assert not out.exists()

    def test_gap_eigenfunction(self, tmp_path):
        proc = run_cli(["gap", RING2, "--m-box", "8", "--out", "gap"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "gap" / "gap.json").read_text())
        assert doc["C_opt"] > 0
        assert doc["residuals"]["eigenpair"] <= 1e-10
        assert (tmp_path / "gap" / "eigenfunction.csv").exists()

    def test_concentration_report(self, tmp_path):
        proc = run_cli(["concentration", RING2, "--out", "conc"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "conc" / "concentration.json").read_text())
        assert doc["verdict"] == "PASS"
        assert 0.85 <= doc["q"] <= 0.95
        assert len(doc["rows"]) == 12
        tails = (tmp_path / "conc" / "tails.csv").read_text().splitlines()
        assert tails[1] == "r,exact,bound,centered_exact,centered_bound"
        assert len(tails) == 14


class TestVerdictExitCode:
    def test_failed_verdict_exits_four(self, tmp_path, monkeypatch):
        # no honest model fails the drift sweep, so stub the slack to force
        # the FAIL branch and check the exit-code mapping
        import pjmp.cli as cli

        monkeypatch.setattr(cli, "check_lyapunov_pointwise", lambda net, cert, x: -1.0)
        code = cli.main(
            ["verify-lyapunov", RING2, "--out", str(tmp_path / "fail")]
        )
        assert code == 4
        doc = json.loads((tmp_path / "fail" / "lyapunov.json").read_text())
        assert doc["verdict"] == "FAIL"


class TestDriftCertificate:
    @pytest.mark.parametrize("w", ["0.1", "0.3", "0"])
    def test_weak_coupling_passes(self, tmp_path, capsys, w):
        # LV = delta (W_0 + W_1) at the origin, which the drift bound must
        # cover; with b = sum_i phi(1 + W_i) W_i alone these failed
        import pjmp.cli as cli

        model = tmp_path / "ring.json"
        model.write_text(
            json.dumps(
                {"n": 2, "weights": [[0, w], [w, 0]], "intensity": {"delta": 1.5, "slope": 1.5}}
            )
        )
        assert cli.main(["verify-lyapunov", str(model), "--out", str(tmp_path / "vl")]) == 0
        doc = json.loads((tmp_path / "vl" / "lyapunov.json").read_text())
        assert doc["verdict"] == "PASS" and doc["min_slack"] >= 0.0


class TestSolverFailureExitCode:
    @pytest.mark.parametrize(
        "exc",
        [
            RuntimeError("power iteration did not settle below 1e-15"),
            MemoryError("Unable to allocate 3.00 GiB for an array"),
        ],
    )
    def test_solver_failure_exits_two(self, tmp_path, monkeypatch, capsys, exc):
        import pjmp.cli as cli

        def failing(gen):
            raise exc

        monkeypatch.setattr(cli, "stationary", failing)
        code = cli.main(["stationary", RING2, "--out", str(tmp_path / "st")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(exc) in err


    def test_dense_tail_over_budget_exits_two(self, tmp_path, monkeypatch, capsys):
        # rand4 (make_random_net(5, n=4)) at box 8 leaves a 714-state dense
        # GTH tail; with the budget one byte short it is refused before it
        # is densified
        import pjmp.cli as cli
        import pjmp.spectral as spectral

        net = make_random_net(5, n=4)
        model = tmp_path / "rand4.json"
        model.write_text(json.dumps({
            "n": net.n_neurons,
            "weights": [[str(w) for w in row] for row in net.weights],
            "intensity": {"delta": str(net.intensity.delta), "slope": str(net.intensity.slope)},
        }))
        monkeypatch.setattr(spectral, "GTH_TAIL_BYTES", 8 * 714**2 - 1)
        code = cli.main(["stationary", str(model), "--m-box", "8", "--out", str(tmp_path / "st")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: the dense GTH tail of 714 states")
        assert err.count("\n") == 1
        assert not (tmp_path / "st").exists()


class TestStrictJson:
    """Reports are strict JSON: one that would hold an inf or a nan exits 2 and writes nothing."""

    @staticmethod
    def _strict(text: str) -> dict:
        def refuse(name):
            raise AssertionError(f"{name} in a report")

        return json.loads(text, parse_constant=refuse)

    def test_reports_parse_as_strict_json(self, tmp_path):
        import pjmp.cli as cli

        for argv in (
            ["verify-poincare", "--n-functions", "1", "--m-box", "10"],
            ["concentration", "--m-box", "10"],
            ["simulate", "--replicas", "2"],
        ):
            out = tmp_path / argv[0]
            assert cli.main([argv[0], RING2, *argv[1:], "--out", str(out)]) == 0
            for path in out.glob("*.json"):
                self._strict(path.read_text())

    @pytest.mark.parametrize("value", [float("-inf"), float("nan")])
    def test_non_finite_slack_is_refused(self, tmp_path, monkeypatch, capsys, value):
        import pjmp.cli as cli

        monkeypatch.setattr(cli, "check_lyapunov_pointwise", lambda net, cert, x: np.array([value]))
        out = tmp_path / "out"
        assert cli.main(["verify-lyapunov", RING2, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: lyapunov.json would hold a non-finite value")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_no_file_of_a_refused_run_is_written(self, tmp_path, monkeypatch, capsys):
        # trajectory.csv comes before estimates.json, and must not be written either
        import pjmp.cli as cli
        from pjmp.simulate import EstimatorResult

        nan = EstimatorResult(mean=float("nan"), std_error=0.0, n_samples=2, seed=0)
        monkeypatch.setattr(cli, "estimate_ensemble", lambda *args: (nan, nan, nan))
        out = tmp_path / "out"
        assert cli.main(["simulate", RING2, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: estimates.json would hold a non-finite value")
        assert err.count("\n") == 1
        assert not out.exists()


class TestNonFiniteOptions:
    """A non-finite numeric option or an empty grid is bad input: exit 2, one line, no report."""

    REPORTS = {
        "stationary": "stationary.json",
        "gap": "gap.json",
        "verify-lyapunov": "lyapunov.json",
        "verify-poincare": "poincare.json",
        "concentration": "concentration.json",
        "semigroup-report": "semigroup.json",
    }

    def _refused(self, tmp_path, capsys, argv, message):
        import pjmp.cli as cli

        out = tmp_path / "out"
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        report = self.REPORTS[argv[0]]
        assert not (out / report).exists()

    @pytest.mark.parametrize("command", sorted(REPORTS))
    @pytest.mark.parametrize("m_box", ["inf", "nan", "-inf"])
    def test_m_box(self, tmp_path, capsys, command, m_box):
        self._refused(
            tmp_path, capsys, [command, RING2, f"--m-box={m_box}"], "box bound must be finite"
        )

    @pytest.mark.parametrize("t_grid", ["inf", "nan", "5,inf"])
    def test_t_grid(self, tmp_path, capsys, t_grid):
        argv = ["semigroup-report", RING2, "--m-box", "10", "--t-grid", t_grid]
        self._refused(tmp_path, capsys, argv, "times must be finite")

    @pytest.mark.parametrize("r_grid", ["nan", "inf", "1,nan"])
    def test_r_grid(self, tmp_path, capsys, r_grid):
        argv = ["concentration", RING2, "--m-box", "10", "--r-grid", r_grid]
        self._refused(tmp_path, capsys, argv, "tail levels must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["semigroup-report", "--t-grid", ""], "the time grid is empty"),
            (["concentration", "--r-grid", ""], "the tail-level grid is empty"),
        ],
    )
    def test_empty_grid(self, tmp_path, capsys, argv, message):
        # an empty --t-grid passed with no time checked; an empty --r-grid
        # ran the default grid while the manifest recorded []
        argv = [argv[0], RING2, "--m-box", "10", *argv[1:]]
        self._refused(tmp_path, capsys, argv, message)
        assert not (tmp_path / "out").exists()

    def test_huge_box_hits_the_state_cap(self, tmp_path, capsys):
        # the cap numerator of --m-box 1e300 overflows int64; enumeration
        # grows unsaturated until the state cap, as it always did
        argv = ["stationary", RING2, "--m-box", "1e300", "--max-states", "500"]
        self._refused(tmp_path, capsys, argv, "box m_box=1e+300 holds more than 500")


class TestRepeatedTimes:
    def test_one_distinct_time_has_no_slope(self, tmp_path, capsys):
        # a log-log fit through one distinct time ended in an SVD error
        import pjmp.cli as cli

        out = tmp_path / "out"
        argv = ["semigroup-report", RING2, "--m-box", "10", "--t-grid", "1.0,1.0"]
        code = cli.main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        doc = json.loads((out / "semigroup.json").read_text())
        assert doc["t_grid"] == [1.0, 1.0]
        assert doc["d1_hat"][0] == doc["d1_hat"][1]
        assert doc["slope_d1"] is None and doc["slope_d2"] is None


class TestStateObjects:
    def test_no_command_builds_the_whole_box(self, tmp_path, monkeypatch):
        # EnumeratedSpace.states (and index, position, in, built on it) is
        # the API edge; every command reads the tables instead
        import pjmp.cli as cli
        from pjmp.statespace import EnumeratedSpace

        def refuse(self):
            raise AssertionError("PotentialState objects built for the whole box")

        monkeypatch.setattr(EnumeratedSpace, "states", property(refuse))
        for argv in (
            ["stationary", "--export-generator"],
            ["gap"],
            ["verify-lyapunov"],
            ["verify-poincare", "--n-functions", "20"],
            ["concentration"],
            ["semigroup-report"],
        ):
            out = tmp_path / argv[0]
            assert cli.main([argv[0], RING2, "--m-box", "10", *argv[1:], "--out", str(out)]) == 0


class TestManifest:
    def test_model_content_in_hash(self, tmp_path):
        # two different models, both named model.json
        import pjmp.cli as cli

        hashes = []
        for name, weights in (("a", [[0, 1], [1, 0]]), ("b", [[0, 2], [1, 0]])):
            model = tmp_path / name / "model.json"
            model.parent.mkdir()
            model.write_text(
                json.dumps({"n": 2, "weights": weights, "intensity": {"delta": 1.5, "slope": 1.5}})
            )
            out = tmp_path / name / "st"
            assert cli.main(["stationary", str(model), "--m-box", "6", "--out", str(out)]) == 0
            doc = json.loads((out / "stationary.json").read_text())
            assert doc["manifest"]["model"] == "model.json"
            hashes.append(doc["manifest_hash"])
        assert hashes[0] != hashes[1]


def _run_in_process(tmp_path, argv, model=RING2):
    import pjmp.cli as cli

    out = tmp_path / "out"
    code = cli.main([argv[0], model, *argv[1:], "--out", str(out)])
    return code, out


class TestStationaryCrossChecks:
    """Only `pjmp stationary` prints the law's cross-checks, so only it runs them."""

    @pytest.mark.parametrize(
        "argv",
        [["gap"], ["verify-poincare", "--n-functions", "5"], ["concentration"],
         ["semigroup-report"]],
        ids=lambda argv: argv[0],
    )
    def test_law_commands_run_no_cross_check(self, tmp_path, cross_check_calls, argv):
        code, _out = _run_in_process(tmp_path, [*argv, "--m-box", "10"])
        assert code == 0
        assert cross_check_calls == {"_lu_nullspace_solve": 0, "_power_iteration_solve": 0}

    def test_stationary_runs_each_cross_check_once(self, tmp_path, cross_check_calls):
        code, _out = _run_in_process(tmp_path, ["stationary", "--m-box", "10"])
        assert code == 0
        assert cross_check_calls == {"_lu_nullspace_solve": 1, "_power_iteration_solve": 1}

    @pytest.mark.parametrize("command", ["stationary", "gap", "verify-poincare", "concentration"])
    def test_near_equal_rates(self, tmp_path, command):
        # each exited 2 after 4.8 s, when power iteration stalled on this chain
        model = tmp_path / "near-equal.json"
        model.write_text(json.dumps(NEAR_EQUAL_RATES))
        code, out = _run_in_process(tmp_path, [command, "--m-box", "1"], model=str(model))
        assert code == 0
        if command == "stationary":
            assert json.loads((out / "stationary.json").read_text())["power_tv"] <= 1e-10


class TestOneClosedClass:
    """The chain finds its closed class and slices Q to it; the law commands read both."""

    def test_law_commands_search_and_slice_once(self, tmp_path, monkeypatch):
        # rand3 at box 10, solved once for all four commands in one process
        searches, slices = [], []
        search = csgraph.breadth_first_order
        monkeypatch.setattr(
            csgraph, "breadth_first_order", lambda *a, **kw: searches.append(a) or search(*a, **kw)
        )
        block = SparseGenerator.__dict__["support_matrix"].func
        counted = functools.cached_property(lambda gen: slices.append(gen) or block(gen))
        counted.__set_name__(SparseGenerator, "support_matrix")
        monkeypatch.setattr(SparseGenerator, "support_matrix", counted)
        model = str(BENCH_MODELS / "rand3.json")
        for command in ("stationary", "gap", "verify-poincare", "concentration"):
            argv = [command, "--m-box", "10"]
            assert _run_in_process(tmp_path / command, argv, model=model)[0] == 0
        assert len(searches) == 1 and len(slices) == 1


# the commands that read the solved chain, on two chains of ring2
LAW_COMMANDS = (
    ["stationary", "--export-generator"],
    ["gap"],
    ["verify-poincare", "--n-functions", "50"],
    ["concentration"],
    ["semigroup-report"],
)
LAW_BOXES = {"default": [], "m10": ["--m-box", "10"]}


@pytest.fixture(scope="class")
def console_reports(tmp_path_factory):
    """Each law command on each chain of LAW_BOXES, one fresh process each."""
    root = tmp_path_factory.mktemp("console")
    for box, box_args in LAW_BOXES.items():
        for argv in LAW_COMMANDS:
            out = root / box / argv[0]
            proc = run_cli([argv[0], RING2, *argv[1:], *box_args, "--out", str(out)], root)
            assert proc.returncode == 0, proc.stderr
    return root


class TestSolvedLaw:
    """In-process commands on one chain share one solve of it and one eigensolve."""

    @pytest.fixture
    def solves(self, monkeypatch) -> dict:
        import pjmp.cli as cli
        import pjmp.spectral as spectral

        calls = {"stationary": 0, "poincare_constant": 0}

        def counted(module, name):
            def call(arg, solve=getattr(module, name)):
                calls[name] += 1
                return solve(arg)

            monkeypatch.setattr(module, name, call)

        counted(cli, "stationary")
        counted(spectral, "poincare_constant")
        return calls

    def test_one_solve_per_chain(self, tmp_path, solves):
        for argv in LAW_COMMANDS[:4]:
            code, _out = _run_in_process(tmp_path, [*argv, "--m-box", "10"])
            assert code == 0
        assert solves == {"stationary": 1, "poincare_constant": 1}

    def test_same_content_under_another_name_is_not_solved_again(self, tmp_path, solves):
        copy = tmp_path / "copy.json"
        copy.write_text(Path(RING2).read_text())
        for model in (RING2, str(copy)):
            assert _run_in_process(tmp_path, ["gap", "--m-box", "10"], model=model)[0] == 0
        assert solves == {"stationary": 1, "poincare_constant": 1}

    @pytest.mark.parametrize(
        "second, model",
        [
            (["--m-box", "9"], None),
            (["--m-box", "10", "--max-states", "1000"], None),
            (["--m-box", "10"], {"n": 2, "weights": [[0, 2], [1, 0]],
                                 "intensity": {"delta": 1.5, "slope": 1.5}}),
        ],
        ids=["box", "max-states", "model"],
    )
    def test_another_chain_is_solved_again(self, tmp_path, solves, second, model):
        assert _run_in_process(tmp_path, ["gap", "--m-box", "10"])[0] == 0
        path = RING2
        if model is not None:
            path = tmp_path / "other.json"
            path.write_text(json.dumps(model))
        assert _run_in_process(tmp_path, ["gap", *second], model=str(path))[0] == 0
        assert solves == {"stationary": 2, "poincare_constant": 2}

    def test_refused_solve_is_retried(self, tmp_path, monkeypatch, capsys):
        import pjmp.cli as cli

        calls = []

        def fails_once(gen, solve=cli.stationary):
            calls.append(gen)
            if len(calls) == 1:
                raise RuntimeError("power iteration did not settle below 1e-15")
            return solve(gen)

        monkeypatch.setattr(cli, "stationary", fails_once)
        assert _run_in_process(tmp_path, ["stationary", "--m-box", "10"])[0] == 2
        assert capsys.readouterr().err.startswith("error: power iteration")
        code, out = _run_in_process(tmp_path, ["stationary", "--m-box", "10"])
        assert code == 0 and len(calls) == 2
        assert (out / "stationary.json").exists()

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_files_match_fresh_processes(self, tmp_path, console_reports, order):
        import pjmp.cli as cli

        runs = [(box, argv) for box in LAW_BOXES for argv in LAW_COMMANDS]
        if order == "reverse":
            runs.reverse()
        for box, argv in runs:
            out = tmp_path / box / argv[0]
            args = [argv[0], RING2, *argv[1:], *LAW_BOXES[box], "--out", str(out)]
            assert cli.main(args) == 0
        console = sorted(p.relative_to(console_reports) for p in console_reports.rglob("*.*"))
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.*")) == console
        for rel in console:
            assert (tmp_path / rel).read_bytes() == (console_reports / rel).read_bytes(), rel

    def test_parser_is_built_once_and_parses_each_call_afresh(self):
        import pjmp.cli as cli

        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["gap", RING2, "--m-box", "5", "--export-generator", "--seed", "3"])
        second = parser.parse_args(["verify-poincare", RING2, "--n-functions", "7"])
        third = parser.parse_args(["gap", RING2])
        assert (first.command, first.m_box, first.export_generator, first.seed) == ("gap", 5.0, True, 3)
        assert (second.command, second.m_box, second.n_functions, second.seed) == (
            "verify-poincare", None, 7, 0)
        assert not hasattr(second, "export_generator")
        assert (third.m_box, third.export_generator, third.seed) == (None, False, 0)


class TestVerifyPoincareBlocks:
    """verify-poincare scores its functions in blocks, bitwise as one at a time."""

    @pytest.mark.parametrize("per_block", [1, 7, 50, 1000])
    def test_blocks_match_the_loop(self, tmp_path, monkeypatch, per_block):
        import pjmp.cli as cli

        net = network_from_json(RING2)
        mu = stationary(assemble_generator(net, enumerate_states(net, net.zero_state(), 10.0)))
        c_opt = poincare_constant(mu).c_opt
        rng = np.random.default_rng(11)
        worst, sup = -float("inf"), 0.0
        for _ in range(50):  # the loop the blocks replace
            var, energy = variance_and_energy(mu, rng.standard_normal(mu.generator.dimension))
            worst = max(worst, var - c_opt * energy)
            if energy > 0:
                sup = max(sup, var / energy)

        monkeypatch.setattr(cli, "POINCARE_BLOCK_FLOATS", per_block * mu.generator.dimension)
        argv = ["verify-poincare", "--m-box", "10", "--n-functions", "50", "--seed", "11"]
        code, out = _run_in_process(tmp_path, argv)
        assert code == 0
        doc = json.loads((out / "poincare.json").read_text())
        assert (doc["worst_excess"], doc["sup_rayleigh"]) == (worst, sup)


class TestReportFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t", "2", "--replicas", "10"],
            ["stationary", "--m-box", "10"],
            ["gap", "--m-box", "10"],
            ["concentration", "--m-box", "10"],
        ],
    )
    def test_csv_cells_are_numbers(self, tmp_path, argv):
        # numpy 2 scalars formatted with !r read np.float64(...)
        code, out = _run_in_process(tmp_path, argv)
        assert code == 0
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        for path in csvs:
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# manifest_hash=")
            assert len(lines) > 2
            for line in lines[2:]:
                for cell in line.split(","):
                    try:
                        int(cell)
                    except ValueError:
                        float(cell)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t", "2", "--replicas", "10"],
            ["stationary", "--m-box", "10"],
            ["stationary", "--m-box", "10", "--export-generator"],
            ["gap", "--m-box", "10"],
            ["gap", "--m-box", "10", "--export-generator"],
            ["verify-lyapunov"],
            ["verify-poincare", "--m-box", "10", "--n-functions", "20"],
            ["concentration", "--m-box", "10"],
            ["semigroup-report", "--m-box", "10"],
        ],
    )
    def test_manifest_names_what_was_written(self, tmp_path, argv):
        got, out = _run_in_process(tmp_path, argv)
        assert got == 0
        written = sorted(path.name for path in out.iterdir())
        (report,) = [name for name in written if name.endswith(".json")]
        doc = json.loads((out / report).read_text())
        assert doc["manifest"]["outputs"] == written


def _key_paths(doc: dict, prefix: str = "") -> list:
    """Dotted key paths of a report; a list of dicts is read through its first entry."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if key == "manifest":
            continue
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            paths += _key_paths(value[0], f"{prefix}{key}[].")
    return paths


_HEAD = ("manifest", "manifest_hash")
_ESTIMATES = tuple(
    name + field
    for name in ("firing_effort", "total_potential_mean", "total_potential_variance")
    for field in ("", ".n", ".seed", ".std_error", ".value")
)
REPORT_KEYS = {
    ("simulate", "--t", "2", "--replicas", "10"): (
        "estimates.json",
        (*_HEAD, "n_events", *_ESTIMATES),
    ),
    ("stationary", "--m-box", "10"): (
        "stationary.json",
        (*_HEAD, "dense_tv", "dims", "dims.states", "dims.support", "m_box",
         "mean_total_potential", "power_tv", "residual"),
    ),
    ("gap", "--m-box", "10"): (
        "gap.json",
        (*_HEAD, "C_opt", "dims", "dims.states", "dims.support", "gap",
         "method", "residuals", "residuals.eigenpair", "residuals.stationary"),
    ),
    ("verify-lyapunov",): (
        "lyapunov.json",
        (*_HEAD, "alpha", "b", "m", "m_box", "min_slack", "n_states", "strong", "theta",
         "verdict"),
    ),
    ("verify-poincare", "--m-box", "10", "--n-functions", "20"): (
        "poincare.json",
        (*_HEAD, "C_opt", "checks", "checks.optimizer_achieves_C_opt",
         "checks.path_bound_dominates", "checks.sup_rayleigh_below_C_opt",
         "checks.variance_dominated", "n_functions", "optimizer_ratio", "path_c0",
         "path_max_length", "stationary_residual", "sup_rayleigh", "verdict", "worst_excess"),
    ),
    ("concentration", "--m-box", "10"): (
        "concentration.json",
        (*_HEAD, "C0", "C3", "N0", "lambda", "lambda0", "mu_F", "q", "rows", "rows[].bound",
         "rows[].centered_bound", "rows[].centered_exact", "rows[].exact", "rows[].ok",
         "rows[].r", "stationary_residual", "verdict"),
    ),
    ("semigroup-report", "--m-box", "10"): (
        "semigroup.json",
        (*_HEAD, "checks", "checks.d1_growth_cap", "checks.d2_growth_cap",
         "checks.outside_one_term", "d1_hat", "d2_hat", "enlarged_box", "fit_violation",
         "inner_box", "n_outside", "n_suite", "outside_term_max", "slope_d1", "slope_d2",
         "stationary_residual", "t0_max", "t1", "t_grid", "theta", "verdict"),
    ),
}


class TestReportKeys:
    @pytest.mark.parametrize("argv", list(REPORT_KEYS), ids=lambda argv: argv[0])
    def test_report_keys_are_pinned(self, tmp_path, argv):
        name, keys = REPORT_KEYS[argv]
        code, out = _run_in_process(tmp_path, list(argv))
        assert code == 0
        doc = json.loads((out / name).read_text())
        assert sorted(_key_paths(doc)) == sorted(keys)


class TestDeterminism:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["simulate", RING2, "--t", "2", "--replicas", "60", "--seed", "5"],
            ["stationary", RING2, "--m-box", "8"],
            ["verify-poincare", RING2, "--n-functions", "40", "--m-box", "12"],
        ],
    )
    def test_repeat_runs_byte_identical(self, tmp_path, cmd):
        for name in ("a", "b"):
            proc = run_cli(cmd + ["--out", str(tmp_path / name)], tmp_path)
            assert proc.returncode == 0, proc.stderr
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize(
        "command, model, m_box",
        [
            ("gap", "rand3", "10"),
            ("stationary", "rand3", "10"),
            ("gap", "rand3", "24"),
            ("stationary", "rand3", "24"),
            ("gap", "rand4", "8"),
        ],
    )
    def test_blas_thread_count_moves_no_byte(self, tmp_path, command, model, m_box):
        # the shift-invert eigensolve and the LU cross-check (rand3, 808 and
        # 4791 support states) and LOBPCG (rand4 at box 8, 3250) give the
        # same bytes on one BLAS thread and two
        model = str(BENCH_MODELS / f"{model}.json")
        for threads in ("1", "2"):
            proc = run_cli(
                [command, model, "--m-box", m_box, "--out", str(tmp_path / threads)],
                tmp_path,
                env_extra={"OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
        names = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
