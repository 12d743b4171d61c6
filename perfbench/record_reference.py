"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs one iteration of each workload for every seed in SEED_POOL (once for
butterworth, whose inputs do not depend on the seed) and writes
``perfbench/reference/<workload>.npz``.  The arrays are the library's own
outputs at the commit named in each file's ``meta`` entry; re-record only
when a change is meant to alter outputs, and say so with its drift.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(wl: workloads.Workload) -> dict:
    arrays = {}
    seeds = range(len(workloads.SEED_POOL)) if wl.seeded else [0]
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in seeds:
            inp = wl.build(seed, False, Path(tmp))
            out = wl.outputs(inp, wl.iterate(inp))
            prefix = wl.reference_prefix(inp)
            for key in wl.reference_keys:
                arrays[f"{prefix}/{key}"] = out[key][::wl.reference_stride]
            print(f"{wl.name} {prefix}: " + ", ".join(
                f"{k} {arrays[f'{prefix}/{k}'].size}" for k in wl.reference_keys))
    arrays["meta"] = np.array(json.dumps({
        "git_sha": run._git_sha(), "source_sha256": run._source_digest(),
        "stride": wl.reference_stride, "rtol": oracles.REFERENCE_RTOL}))
    return arrays


def main() -> int:
    outdir = HERE / "reference"
    outdir.mkdir(exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        np.savez_compressed(outdir / f"{wl.name}.npz", **record(wl))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
