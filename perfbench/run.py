"""passivenet benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload waveguide --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the library is imported from ``src/``.  A run
measures set-up in fresh interpreters, then runs the workload's iteration
in this process until ``--seconds`` is used, rescales iteration times by
the host-speed calibration (``calibration.py``), checks the outputs and
prints one line per metric.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the JSON result.  Details go to ``.perfbench_out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3          # fresh interpreters per run; setup_s is their median
KNOBS = ("PASSIVE_NET_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
         "MKL_NUM_THREADS")


def _setup_path() -> None:
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it, or why there is none."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (n = {n}, needs >= 11)"
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return f"p{pct} = {sorted(samples)[rank - 1]!r}"


# ---------------------------------------------------------------------------
# machine block


def _openblas() -> list[dict]:
    """Library, config string and thread count of each loaded OpenBLAS, via ctypes."""
    import ctypes
    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "passivenet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_block(seed: int, config_seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    knobs = {k: os.environ.get(k) for k in KNOBS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "loaded": _openblas()},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "config_seed": config_seed,
        "knobs": knobs,
        "knobs_set": any(v is not None for v in knobs.values()),
    }


# ---------------------------------------------------------------------------
# set-up: fresh interpreters


def setup_probe(workload: str, seed: int, smoke: bool) -> int:
    """Child side: import the CLI, build the inputs, report the import time."""
    t0 = time.perf_counter()
    import passivenet.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    workloads.WORKLOADS[workload].build(seed, smoke, OUT)
    print(json.dumps({"import_s": import_s}))
    return 0


def _timed(cmd: list) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return wall, proc.stdout


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> tuple[list, list, list]:
    """Wall times of fresh interpreters that set up the workload, of the
    baseline interpreter started right before each, and the probes' import times."""
    import calibration
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    walls, baselines, imports = [], [], []
    for _ in range(probes):
        baselines.append(_timed([sys.executable, "-c", calibration.BASELINE_IMPORT])[0])
        wall, out = _timed(cmd)
        walls.append(wall)
        imports.append(json.loads(out.strip().splitlines()[-1])["import_s"])
    return walls, baselines, imports


# ---------------------------------------------------------------------------
# the measured run


@dataclass
class Iteration:
    index: int
    traced: bool
    wall: float
    ok: bool
    stages: dict = field(default_factory=dict)    # span name -> seconds
    calibration: float = float("nan")             # kernel time around it, seconds
    coverage: float = float("nan")
    layer: dict = field(default_factory=dict)     # per-layer values (traced only)
    table: dict = field(default_factory=dict)     # per-function stats (traced only)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    machine: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, detail)
    extra: dict = field(default_factory=dict)     # printed only, not gated

    @property
    def attempted(self) -> int:
        return len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(1 for i in self.iterations if not i.ok)

    @property
    def correct(self) -> bool:
        return (self.attempted > 0 and self.failed == 0
                and all(c.ok for c in self.checks))

    def line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": {k: {"value": v, "unit": u}
                                       for k, (v, u, _) in self.metrics.items()}})


def _stage_durations(spans, index: int) -> dict:
    out: dict = {}
    for s in spans:
        if s.iteration == index:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        corrupt=None, probes: int = SETUP_PROBES) -> Result:
    """Measure one workload.

    Iterations run until the next one would end past ``seconds``.  Iteration
    0 is a warm-up: its outputs are the ones checked, but its time is only
    printed, as ``first_run_s``.  At least one timed iteration follows it;
    with ``trace`` the later iterations alternate traced and untraced,
    starting traced, with at least one of each.  ``corrupt(index, outputs)``
    may alter an iteration's outputs; the self-test uses it.
    """
    import numpy as np
    import calibration
    import layers
    import workloads
    from tracer import Tracer, summarise, write_spans

    wl = workloads.WORKLOADS[workload]
    result = Result(workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        with calibration.Calibrator() as cal:
            setup_walls, baselines, import_times = measure_setup(workload, seed, smoke,
                                                                 probes)
            inp = wl.build(seed, smoke, workdir)
            result.machine = machine_block(seed, workloads.config_seed(seed))
            ref = None
            if not smoke:
                with np.load(HERE / "reference" / f"{wl.name}.npz") as npz:
                    ref = dict(npz)
            ns = layers.namespaces()
            stage = Tracer(layers.stage_targets(wl), ns)
            full = Tracer(layers.trace_targets(), ns) if trace else None
            first_digest = None
            mismatched = []
            work = {}
            started = time.perf_counter()
            kernel = [cal.measure()]
            while True:
                index = len(result.iterations)
                traced = trace and index % 2 == 1
                tracer = full if traced else stage
                tracer.iteration = index
                t0 = time.perf_counter()
                try:
                    with tracer:
                        t0 = time.perf_counter()
                        res = wl.iterate(inp)
                        wall = time.perf_counter() - t0
                    out = wl.outputs(inp, res)
                except Exception:
                    traceback.print_exc()
                    result.iterations.append(
                        Iteration(index, traced, time.perf_counter() - t0, False))
                    result.checks.append(workloads.Check(
                        "iteration_raised", False, f"iteration {index} raised (see stderr)"))
                    break
                kernel.append(cal.measure())
                if corrupt is not None:
                    out = corrupt(index, out)
                digest = workloads.digest(out)
                it = Iteration(index, traced, wall, True,
                               stages=_stage_durations(tracer.spans, index),
                               calibration=0.5 * (kernel[-2] + kernel[-1]))
                if first_digest is None:
                    first_digest = digest
                    checks = wl.checks(inp, res, out, ref)
                    result.checks += checks
                    result.findings = wl.findings(inp, res, out)
                    it.ok = all(c.ok for c in checks)
                    work = {"points": inp["grid"].size if wl.sweep_span else 0,
                            "steps": out["p_folds"].size if wl.step_span else 0}
                elif digest != first_digest:
                    it.ok = False
                    mismatched.append(index)
                if traced:
                    stats, top = summarise(full.spans, index)
                    own = [s for s in full.spans if s.iteration == index]
                    it.coverage = top / wall
                    it.layer = layers.iteration_metrics(stats, own, wall)
                    it.table = stats
                    it.ok = it.ok and it.coverage >= 0.95
                del res, out
                result.iterations.append(it)
                elapsed = time.perf_counter() - started
                estimate = statistics.median(i.wall for i in result.iterations) + kernel[-1]
                enough = len(result.iterations) >= (3 if trace else 2)
                if enough and elapsed + estimate > seconds:
                    break
            if full is not None:
                write_spans(full.spans, OUT / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    later = result.iterations[1:]
    if later:
        result.checks.append(workloads.Check(
            "byte_identical", not mismatched,
            f"{len(later) - len(mismatched)} of {len(later)} later iterations "
            "byte-identical to the first" + (f"; differ: {mismatched}" if mismatched else "")))
    traced_its = [i for i in result.iterations if i.traced]
    if traced_its:
        same = [i for i in traced_its if i.index not in mismatched]
        result.checks.append(workloads.Check(
            "trace_bit_identical", len(same) == len(traced_its),
            f"{len(same)} of {len(traced_its)} traced iterations equal the untraced outputs"))
        low = min(i.coverage for i in traced_its)
        result.checks.append(workloads.Check(
            "trace_coverage", low >= 0.95,
            f"top-level spans cover at least {low:.4f} of each traced iteration "
            "(limit 0.95)"))
    plain = [i for i in result.iterations[1:] if not i.traced]
    if not result.correct:
        return result
    if trace:
        result.metrics = _layer_metrics(result, import_times, plain, traced_its)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.metrics = {
            "setup_s": _median([w * calibration.BASELINE_REFERENCE_S / b
                                for w, b in zip(setup_walls, baselines)], "s"),
            "run_s": _median([_calibrated(i) for i in plain], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the workload process")}
        result.extra["setup_wall_s"] = _median(setup_walls, "s")
        result.extra["run_wall_s"] = _median([i.wall for i in plain], "s")
        result.extra["host_speed"] = _median(
            [calibration.REFERENCE_S / i.calibration for i in plain], "1")
        result.extra["first_run_s"] = (result.iterations[0].wall, "s",
                                       "warm-up iteration, wall time, not in run_s")
        result.extra["compose_s"] = _median([i.stages[wl.compose_span] for i in plain], "s")
        if wl.sweep_span:
            result.extra["sweep_points_per_s"] = _median(
                [work["points"] / i.stages[wl.sweep_span] for i in plain], "1/s")
        if wl.step_span:
            result.extra["steps_per_s"] = _median(
                [work["steps"] / i.stages[wl.step_span] for i in plain], "1/s")
    return result


def _calibrated(it: Iteration) -> float:
    """Wall time rescaled to the reference host speed (see calibration.py)."""
    import calibration
    return it.wall * calibration.REFERENCE_S / it.calibration


def _median(samples: list, unit: str) -> tuple:
    return (statistics.median(samples), unit,
            f"median of {len(samples)}; {tail(samples)}")


def _layer_metrics(result: Result, import_times, plain, traced_its) -> dict:
    import layers
    m = {}
    for name, unit, _ in layers.PER_LAYER:
        values = [i.layer[name] for i in traced_its if name in i.layer]
        if values:
            value, unit, detail = _median(values, unit)
            if unit in ("count", "B") and float(value).is_integer():
                value = int(value)
            m[name] = (value, unit, detail)
    m["cli.import_s"] = _median(import_times, "s")
    m["loewner.sv_ratio"] = (float(result.findings.get("loewner.sv_ratio", 0.0)), "1",
                             "sigma_{k+1} / sigma_1 of the realified Loewner matrix")
    traced_run = statistics.median(_calibrated(i) for i in traced_its)
    plain_run = statistics.median(_calibrated(i) for i in plain)
    m["trace.run_s"] = _median([_calibrated(i) for i in traced_its], "s")
    m["trace.overhead_s"] = (traced_run - plain_run, "s",
                             f"traced run_s {traced_run:.4f} - untraced run_s "
                             f"{plain_run:.4f} ({len(plain)} untraced iterations), "
                             "both calibrated")
    m["trace.coverage"] = _median([i.coverage for i in traced_its], "1")
    return {name: m[name] for name, _, _ in layers.PER_LAYER}


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report(result: Result) -> None:
    """Human-readable lines; the JSON result line is printed separately, last."""
    import workloads
    print(f"# workload {result.workload}: {workloads.WORKLOADS[result.workload].why}")
    print("# machine " + json.dumps(result.machine))
    for c in result.checks:
        print(f"check {c.name} {'ok' if c.ok else 'FAILED'}: {c.detail}")
    for key, value in result.findings.items():
        print(f"finding {key} = {_fmt(value)}  (reported, not gated)")
    for name, (value, unit, detail) in {**result.metrics, **result.extra}.items():
        print(f"metric {name} = {_fmt(value)} {unit}  ({detail})")
    frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"metric failed_frac = {frac!r} 1  ({result.failed} of {result.attempted} "
          "iterations raised or failed a check)")
    traced = [i for i in result.iterations if i.traced and i.table]
    if traced:
        it = traced[-1]
        print(f"# per-function self time, traced iteration {it.index} "
              f"(wall {it.wall:.4f} s, top-level coverage {it.coverage:.4f})")
        for name, st in sorted(it.table.items(), key=lambda kv: -kv[1].self_s):
            sizes = ", ".join(f"{k} x{v}" for k, v in sorted(st.sizes.items()))
            print(f"layer {name:<50} calls {st.calls:>6}  self {st.self_s:10.6f} s  "
                  f"total {st.total_s:10.6f} s  {1e6 * st.self_s / st.calls:10.1f} us/call"
                  + (f"  [{sizes}]" if sizes else ""))


def write_result(result: Result) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": result.machine,
                   "correct": result.correct,
                   "metrics": {k: {"value": v, "unit": u, "detail": d}
                               for k, (v, u, d) in {**result.metrics,
                                                    **result.extra}.items()},
                   "checks": [vars(c) for c in result.checks],
                   "findings": {k: _fmt(v) for k, v in result.findings.items()},
                   "iterations": [{"index": i.index, "traced": i.traced, "wall": i.wall,
                                   "calibration": i.calibration, "ok": i.ok,
                                   "coverage": i.coverage, "stages": i.stages}
                                  for i in result.iterations]}, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# self-test


def smoke() -> int:
    """Run every workload on the small configurations and assert the harness works.

    Asserts that every metric of BENCHMARK.json is printed with its unit
    and lands in the result line, that a corrupted output (s21 with its
    sign flipped) fails its check and counts in failed_frac, and that
    traced outputs equal untraced ones.
    """
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                result = run(name, 0, 0.0, bool(trace), smoke=True, probes=1)
                report(result)
            lines = text.getvalue().splitlines()
            assert result.correct, f"{name} trace {trace}:\n" + "\n".join(lines)
            got = {k: u for k, (_, u, _) in result.metrics.items()}
            assert got == wanted[trace], f"{name} trace {trace}: metrics {got}"
            for metric, unit in wanted[trace].items():
                assert any(ln.startswith(f"metric {metric} = ")
                           and f" {unit}  (" in ln for ln in lines), (name, metric)
            line = json.loads(result.line())
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            if trace:
                ident = {c.name: c.ok for c in result.checks}
                assert ident.get("trace_bit_identical") is True, result.checks
            print(f"smoke {name} trace {trace}: ok, {result.attempted} iterations")

    def flip_s21(index, out):
        return {**out, "s21": -out["s21"]} if index == 0 else out

    with contextlib.redirect_stdout(io.StringIO()):
        bad = run("butterworth", 0, 0.0, False, smoke=True, corrupt=flip_s21, probes=1)
    failed = {c.name for c in bad.checks if not c.ok}
    assert "abcd_s21" in failed and not bad.correct, bad.checks
    assert bad.failed >= 1, "the corrupted iteration must count in failed_frac"
    print(f"smoke corrupted s21: caught by {sorted(failed)}, "
          f"failed_frac {bad.failed}/{bad.attempted}")
    print("smoke: ok")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("waveguide", "butterworth", "vowel_stepping"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test on the small configurations")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "passivenet" / "__init__.py").is_file():
        print(f"error: no passivenet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _setup_path()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.smoke)
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    report(result)
    write_result(result)
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
