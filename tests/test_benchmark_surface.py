"""The library surface the benchmark in ``perfbench/`` relies on.

Every function ``perfbench/layers.py`` traces must resolve, and every
workload must run its smoke size end to end with every check passing, so a
rename or a changed model field fails here rather than in a benchmark run.
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
