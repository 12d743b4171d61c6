"""Command-line contract: exit codes, stdin/stdout handling, pipeline run
directories with manifests, and rerun determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import pi_scattering_system

import passivenet
from passivenet.core import system_from_json, system_to_json, transfer_function
from passivenet.cli import _TRANSFORMS, main
from passivenet.pipelines import pi_circuit_system
from passivenet.transforms import internal_cayley

# the child interpreter imports the same passivenet as this one, also when
# pytest put src/ on sys.path without it being installed
_PACKAGE_ROOT = str(Path(passivenet.__file__).resolve().parents[1])


def _cli_env() -> dict:
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(args, stdin_text=None):
    return subprocess.run([sys.executable, "-m", "passivenet.cli", *args],
                          input=stdin_text, capture_output=True, text=True, env=_cli_env())


def write_system(path, sys_obj):
    path.write_text(json.dumps(system_to_json(sys_obj)))
    return str(path)


@pytest.fixture
def pi_json(tmp_path):
    return write_system(tmp_path / "pi.json", pi_circuit_system(2.2e-9, 3.4e-9, 14e-6))


class TestCheck:
    def test_conservative_exit_zero(self, pi_json):
        proc = run_cli(["check", pi_json, "--kind", "impedance"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Conservative"

    def test_corrupt_json_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(["check", str(bad)])
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_not_passive_exit_two(self, tmp_path):
        from passivenet.core import StateSpaceSystem
        sys_obj = StateSpaceSystem(np.array([[1.0]]), np.ones((1, 1)),
                                   np.ones((1, 1)), np.zeros((1, 1)), split=(1, 0))
        path = write_system(tmp_path / "unstable.json", sys_obj)
        proc = run_cli(["check", path, "--kind", "impedance"])
        assert proc.returncode == 2

    def test_discrete_and_scattering_kinds(self, pi_json, tmp_path):
        # the file's own type picks the time axis: the Cayley transform of
        # the conservative circuit is checked in discrete time and stays
        # conservative; the scattering form passes in both time axes
        disc = str(tmp_path / "disc.json")
        proc = run_cli(["transform", pi_json, "--op", "cayley", "--sigma", "88200", "-o", disc])
        assert proc.returncode == 0
        proc = run_cli(["check", disc, "--kind", "impedance"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Conservative"
        scat = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0)
        path = write_system(tmp_path / "scat.json", scat)
        proc = run_cli(["check", path, "--kind", "scattering"])
        assert proc.returncode == 0
        assert run_cli(["transform", path, "--op", "cayley", "-o", disc]).returncode == 0
        proc = run_cli(["check", disc, "--kind", "scattering"])
        assert proc.returncode == 0

    @pytest.mark.parametrize("kind", ["impedance", "scattering"])
    def test_same_question_same_verdict_in_both_time_axes(self, tmp_path, kind):
        # G(s) = 1/2 + (1/4)/(s + 1) is strictly passive under either supply
        from passivenet.core import StateSpaceSystem
        sys_obj = StateSpaceSystem(-np.eye(1), np.full((1, 1), 0.5), np.full((1, 1), 0.5),
                                   np.full((1, 1), 0.5), split=(1, 0))
        path = write_system(tmp_path / "g.json", sys_obj)
        disc = str(tmp_path / "gd.json")
        assert run_cli(["transform", path, "--op", "cayley", "-o", disc]).returncode == 0
        for f in (path, disc):
            proc = run_cli(["check", f, "--kind", kind])
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "StrictlyPassive"


class TestUsage:
    """argparse usage errors exit 1 (2 is "not passive"); --help and
    --version exit 0."""

    @pytest.mark.parametrize("args", [
        ["check", "f.json", "--kind", "bogus"],
        ["check", "f.json", "--sigma", "abc"],
        ["check", "f.json", "--kind", "discrete"],
        ["check", "f.json", "--conservative"],
        ["check", "f.json", "--impedance"],
        ["check"],
        [],
    ])
    def test_usage_error_exits_one(self, args):
        proc = run_cli(args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage:") and "error:" in proc.stderr

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["check", "--help"]])
    def test_help_and_version_exit_zero(self, args):
        proc = run_cli(args)
        assert proc.returncode == 0
        assert proc.stdout


def _pole_at(tmp_path, sigma):
    from passivenet.core import StateSpaceSystem
    sys_obj = StateSpaceSystem(np.array([[sigma]]), np.ones((1, 1)), np.ones((1, 1)),
                               np.zeros((1, 1)), split=(1, 0))
    return write_system(tmp_path / "pole.json", sys_obj)


class TestSystemFileValues:
    @pytest.mark.parametrize("command", [["check"], ["transform", "--op", "fi"], ["star"]],
                             ids=["check", "transform", "star"])
    def test_entry_beyond_double_range_exit_one(self, pi_json, tmp_path, command):
        obj = json.loads(Path(pi_json).read_text())
        obj["A"][0][1] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        files = [str(path), pi_json] if command == ["star"] else [str(path)]
        proc = run_cli([command[0], *files, *command[1:]])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: field 'A' must be")
        assert "Traceback" not in proc.stderr


class TestGateExitCodes:
    """Every GateError exits 3; a non-positive sigma is a usage error (1)."""

    @pytest.mark.parametrize("args", [["transform", "--op", "cayley"],
                                      ["check", "--kind", "scattering"]])
    def test_eigenvalue_at_sigma_exit_three(self, tmp_path, args):
        path = _pole_at(tmp_path, 88200.0)
        proc = run_cli([args[0], path, *args[1:], "--sigma", "88200"])
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:") and "spectrum of A" in proc.stderr

    @pytest.mark.parametrize("args", [["transform", "--op", "cayley"],
                                      ["check", "--kind", "scattering"]])
    def test_non_positive_sigma_exit_one(self, tmp_path, args):
        path = _pole_at(tmp_path, -1.0)
        proc = run_cli([args[0], path, *args[1:], "--sigma", "0"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "sigma must be positive" in proc.stderr


class TestTransform:
    def test_fi_twice_recovers_transfer(self, tmp_path, rng):
        from conftest import random_system
        sys_obj = random_system(rng, 3, 1, 1)
        path = write_system(tmp_path / "s.json", sys_obj)
        once = run_cli(["transform", path, "--op", "fi"])
        assert once.returncode == 0
        mid = tmp_path / "mid.json"
        mid.write_text(once.stdout)
        twice = run_cli(["transform", str(mid), "--op", "fi"])
        assert twice.returncode == 0
        back = system_from_json(json.loads(twice.stdout))
        for s in (1.2 + 0.8j, 3.0j, -0.5 + 1.7j):
            a = transfer_function(sys_obj, s)
            b = transfer_function(back, s)
            assert np.abs(a - b).max() <= 1e-10 * (1 + np.abs(a).max())

    @pytest.mark.parametrize("op, args, message", [
        ("extcayley", ["--R1", "nan"], "R1 contains non-finite"),
        ("iextcayley", ["--R1", "1", "--R2", "inf"], "R2 contains non-finite"),
        ("cayley", ["--sigma", "inf"], "sigma must be positive and finite"),
    ])
    def test_non_finite_parameter_exit_one(self, pi_json, op, args, message):
        proc = run_cli(["transform", pi_json, "--op", op, *args])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and message in proc.stderr

    def test_extcayley_matches_closed_form(self, pi_json):
        proc = run_cli(["transform", pi_json, "--op", "extcayley",
                        "--R1", "50", "--R2", "50", "--epsilon", "1e-3"])
        assert proc.returncode == 0
        got = system_from_json(json.loads(proc.stdout))
        want = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0, 1e-3)
        assert np.abs(got.A - want.A).max() <= 1e-9 * np.abs(want.A).max()
        assert np.abs(got.B - want.B).max() <= 1e-12 * np.abs(want.B).max()

    def test_chain_of_pi_scattering_exit_three(self, tmp_path):
        path = write_system(tmp_path / "scat.json",
                            pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0, 1e-3))
        proc = run_cli(["transform", path, "--op", "chain"])
        assert proc.returncode == 3
        assert "D21" in proc.stderr

    def test_regularize_op(self, pi_json):
        proc = run_cli(["transform", pi_json, "--op", "regularize",
                        "--epsilon", "0.25"])
        assert proc.returncode == 0
        out = system_from_json(json.loads(proc.stdout))
        assert np.allclose(np.diag(out.D), 0.25, rtol=0, atol=0)

    def test_stdin_stdout(self, rng):
        from conftest import random_system
        sys_obj = random_system(rng, 2, 1, 1)
        proc = run_cli(["transform", "-", "--op", "sr"],
                       stdin_text=json.dumps(system_to_json(sys_obj)))
        assert proc.returncode == 0
        out = system_from_json(json.loads(proc.stdout))
        assert np.array_equal(out.C[0], sys_obj.C[0])
        assert np.array_equal(out.C[1], -sys_obj.C[1])


class TestTimeAxis:
    """A file on the other time axis is a DimensionMismatch (exit 1) that
    names the op and the axis it needs, not an AttributeError."""

    @pytest.mark.parametrize("op", [*_TRANSFORMS, "star"])
    def test_other_time_axis_exit_one(self, tmp_path, capsys, op):
        cont = pi_circuit_system(2.2e-9, 3.4e-9, 14e-6)
        cpath = write_system(tmp_path / "c.json", cont)
        dpath = write_system(tmp_path / "d.json", internal_cayley(cont, 88200.0))
        if op == "star":
            args, axis = ["star", cpath, dpath], "continuous"
        elif op == "icayley":
            args, axis = ["transform", cpath, "--op", op], "discrete"
        else:
            args, axis = ["transform", dpath, "--op", op], "continuous"
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {'star' if op == 'star' else '--op ' + op} "
                              f"needs a {axis}-time system")


class TestStar:
    def test_pass_through_reproduces(self, tmp_path, rng):
        from conftest import random_system
        from passivenet.core import StateSpaceSystem, io_equivalent
        p = random_system(rng, 3, 1, 1)
        q = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                             np.array([[0.0, 1.0], [1.0, 0.0]]), split=(1, 1))
        pp = write_system(tmp_path / "p.json", p)
        qq = write_system(tmp_path / "q.json", q)
        proc = run_cli(["star", pp, qq])
        assert proc.returncode == 0
        out = system_from_json(json.loads(proc.stdout))
        assert io_equivalent(out, p, tol=1e-9)
        report = json.loads(proc.stderr.strip().splitlines()[0])
        assert report["well_posed"]

    def test_pathological_pair_exit_three(self, tmp_path):
        from passivenet.core import StateSpaceSystem
        bad = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               -np.eye(2), split=(1, 1))
        pp = write_system(tmp_path / "p.json", bad)
        proc = run_cli(["star", pp, pp])
        assert proc.returncode == 3

    def test_regularised_pair_succeeds(self, tmp_path):
        a = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0, 1e-3)
        b = pi_scattering_system(3.4e-9, 2.2e-9, 14e-6, 50.0, 50.0, 1e-3)
        pp = write_system(tmp_path / "p.json", a)
        qq = write_system(tmp_path / "q.json", b)
        proc = run_cli(["star", pp, qq])
        assert proc.returncode == 0
        out = system_from_json(json.loads(proc.stdout))
        assert out.n == 6


class TestPipelinesCli:
    def test_butterworth_run_dir(self, tmp_path):
        cfg = tmp_path / "bw.json"
        cfg.write_text(json.dumps({"epsilon": 1e-9, "grid_hz": [1e5, 1e6, 5e6]}))
        out = tmp_path / "run"
        proc = run_cli(["butterworth", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"sparams.csv", "regularized.json",
                                            "impedance.json", "minimal.json"}
        assert manifest["seed"] is None  # the ladder draws no random numbers
        assert (out / "sparams.csv").read_text().startswith("f_hz,")

    def test_waveguide_run_and_determinism(self, tmp_path):
        cfg = tmp_path / "wg.json"
        cfg.write_text(json.dumps({"n": 16, "k": 12, "sample_points": 60,
                                   "seed": 11}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            proc = run_cli(["waveguide", str(cfg), "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
        for name in ("resonances.csv", "response.csv", "timeseries.csv",
                     "composite.json", "scheme.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert json.loads((out1 / "manifest.json").read_text())["seed"] == 11

    def test_waveguide_load_that_is_not_passive_exits_one(self, tmp_path):
        # at k = 10 the shifted load has negative resistance on a band that
        # holds a tube mode, and the composite would grow at Re 6e4 /s there
        cfg = tmp_path / "wg.json"
        cfg.write_text(json.dumps({"n": 16, "k": 10, "sample_points": 60,
                                   "seed": 11}))
        proc = run_cli(["waveguide", str(cfg), "--out", str(tmp_path / "run")])
        assert proc.returncode == 1
        assert "q_i + 8.151e+05 I is not impedance passive on 1.194e+06 to 1.527e+06 rad/s" \
            in proc.stderr

    @pytest.mark.parametrize("command, config, message", [
        ("butterworth", {"foo": 1}, "unknown config key"),
        ("waveguide", {"n": 24, "bogus": True}, "unknown config key"),
        ("waveguide", {"area": {"nodes": [0, 0.17]}}, "'nodes' and 'areas'"),
        ("waveguide", {"area": [0, 0.17]}, "'nodes' and 'areas'"),
        ("butterworth", [1e-9], "JSON object"),
        ("waveguide", {"n": "abc"}, "n and k must be positive integers"),
        ("waveguide", {"n": 24.0}, "n and k must be positive integers"),
        ("waveguide", {"sigma": None}, "sigma must be a real number"),
        ("waveguide", {"area_csv": 3}, "'area_csv' must be a string"),
        ("butterworth", {"c1": "2.2e-9"}, "c1 must be a real number"),
        ("butterworth", {"epsilon": True}, "epsilon must be a real number"),
        ("butterworth", {"seed": 1}, "unknown config key"),
        ("butterworth", {"grid_hz": [1e5, "1e6"]}, "'grid_hz' must be a list of numbers"),
        # json.loads reads NaN and Infinity; the pipelines must not
        ("butterworth", {"grid_hz": [1e5, float("nan"), 2e5]}, "'grid_hz' must be a list of"),
        ("butterworth", {"c1": float("-inf")}, "c1 must be positive and finite"),
        ("waveguide", {"c": float("nan")}, "c must be positive and finite"),
        ("waveguide", {"square": float("inf")}, "square must be positive and finite"),
        ("waveguide", {"area": {"nodes": [0, float("nan"), 0.17], "areas": [1e-4] * 3}},
         "area nodes must be finite"),
        ("waveguide", {"n": 1}, "n must be at least 2"),
        ("waveguide", {"sample_points": 3}, "sample_points must be even and at least 4"),
        ("waveguide", {"sample_points": 10, "k": 12}, "k must be at most sample_points"),
        # nor integers beyond double range
        ("butterworth", {"c2": 10**400}, "c2 must be positive and finite"),
        ("butterworth", {"grid_hz": [1e5, 10**400]}, "'grid_hz' must be a list of"),
        ("waveguide", {"n": 10**400}, "n and k must be positive integers"),
        ("waveguide", {"sigma": 10**400}, "sigma must be positive and finite"),
        # a bool is not an area, and a nested list is not flattened
        ("waveguide", {"area": {"nodes": [0, 0.175], "areas": [True, 1e-4]}},
         "area areas must be finite numbers"),
        ("waveguide", {"area": {"nodes": [[0, 0.175]], "areas": [1e-4, 1e-4]}},
         "area nodes must be finite numbers"),
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        proc = run_cli([command, str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, config, key", [
        ("butterworth", {"c2": 10**400}, "c2 must be"),
        ("waveguide", {"n": 10**400}, "n and k must be"),
        ("butterworth", {"grid_hz": [1e5] * 3001 + ["1e6"]}, "'grid_hz' must be"),
        ("waveguide", {"area_csv": [0.0] * 3000}, "'area_csv' must be"),
        ("waveguide", {"area": {"nodes": ["0"] * 3000, "areas": [1e-4]}}, "area nodes must be"),
        ("butterworth", {"c" * 3000: 1.0}, "unknown config key(s): ccc"),
    ], ids=["c2", "n", "grid_hz", "area_csv", "area", "unknown-key"])
    def test_outside_value_is_quoted_briefly(self, tmp_path, command, config, key):
        # each of these printed the whole value, up to 15 kB of stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        proc = run_cli([command, str(cfg), "--out", str(out)])
        assert proc.returncode == 1 and not out.exists()
        assert proc.stderr.startswith("error:") and key in proc.stderr
        assert len(proc.stderr) <= 200 and "Traceback" not in proc.stderr

    @staticmethod
    def _scipy_beyond_linalg(code):
        # the scipy modules that running `code` loads beyond those that
        # scipy.linalg itself loads
        listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        loaded = []
        for snippet in ("import sys, scipy.linalg", "import sys\n" + code):
            proc = subprocess.run([sys.executable, "-c", snippet + "\n" + listing],
                                  capture_output=True, text=True, env=_cli_env())
            assert proc.returncode == 0, proc.stderr
            loaded.append(set(proc.stdout.split()))
        assert "scipy.linalg" in loaded[0]
        return loaded[1] - loaded[0]

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize or scipy.special at import time would cost every
        # command's cold start tens of ms and MB
        assert self._scipy_beyond_linalg("import passivenet.cli") == set()

    def test_excitation_and_report_leave_scipy_optimize_unloaded(self):
        # an LF excitation, a waveguide report and a Butterworth sweep load
        # only the scipy modules that scipy.linalg itself loads
        run = textwrap.dedent("""
            import passivenet.cli
            from passivenet import pipelines, simulate
            spec = simulate.ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.01,
                                           sample_rate=44100.0)
            simulate.excitation_signal(spec)
            comp = pipelines.waveguide_compose(
                pipelines.WaveguideConfig(n=24, k=12, sample_points=80))
            pipelines.waveguide_report(comp, spec, response_grid_hz=[100.0])
            cfg = pipelines.ButterworthConfig()
            pipelines.butterworth_compose(cfg)
            pipelines.butterworth_sparams(cfg, [1e5, 1e6, 5e6])
        """)
        assert self._scipy_beyond_linalg(run) == set()

    def test_main_entrypoint_callable(self, pi_json, capsys):
        code = main(["check", pi_json, "--kind", "impedance"])
        assert code == 0
