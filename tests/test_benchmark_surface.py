"""The library surface the benchmark in ``perfbench/`` relies on.

Every function ``perfbench/layers.py`` traces must resolve, and every
workload must run its smoke size end to end with every check passing, so a
rename or a changed model field fails here rather than in a benchmark run.
perfbench's own runner must also pass the waveguide smoke, traced and
untraced, because its hooks read the shape of the library's results.
It runs in its own interpreter: perfbench's ``oracles`` module would clash
with ``tests/oracles.py``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    import layers
    import workloads

    for target in layers.trace_targets():
        assert callable(getattr(target.module, target.attr)), target.name
    for wl in workloads.WORKLOADS.values():
        workdir = Path(sys.argv[1]) / wl.name
        workdir.mkdir()
        inp = wl.build(0, True, workdir)
        res = wl.iterate(inp)
        out = wl.outputs(inp, res)
        failed = [f"{c.name}: {c.detail}" for c in wl.checks(inp, res, out, None) if not c.ok]
        assert not failed, (wl.name, failed)
    print("surface ok")
""")


def test_perfbench_workloads_run_and_pass(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "surface ok" in proc.stdout


SMOKE_RUN = textwrap.dedent("""
    import contextlib
    import io
    import sys
    from pathlib import Path

    import run

    run.OUT = Path(sys.argv[1])
    for trace in (False, True):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            result = run.run("waveguide", 0, 0.0, trace, smoke=True, probes=1)
            run.report(result)
        assert result.correct, text.getvalue()
        print(f"waveguide trace {int(trace)}: ok")
""")


def test_perfbench_waveguide_smoke_runs_traced_and_untraced(tmp_path):
    # the harness itself, not just the workload: its step-response hook reads
    # the shape of step_response's result, so a result-shape change fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", SMOKE_RUN, str(tmp_path)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["waveguide", "trace", "0:", "ok",
                                   "waveguide", "trace", "1:", "ok"]
