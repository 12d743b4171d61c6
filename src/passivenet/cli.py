"""Command-line front end.

Exit codes: 0 success (and: passive/conservative for `check`), 1 usage or
I/O error, 2 not passive, 3 a singular block or non-well-posed loop.
'-' stands for stdin/stdout on single-file commands.  Pipeline runs write
their outputs plus a manifest.json recording the command line, the SHA-256
of the config bytes, the seed, the tool version, wall time and the output
file list; all randomness flows from the one seed in the config, so rerun
outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, feedback, pipelines, simulate, transforms, websterfem
from .core import system_from_json, system_to_json, DiscreteSystem, StateSpaceSystem
from .errors import (
    NotWellPosed,
    PassiveNetError,
    SingularBlock,
    SingularFeedthrough,
    SingularGenerator,
    SingularShiftedFeedthrough,
    OneEigenvalue,
    MinusOneEigenvalue,
    RankDeficient,
)
from .passivity import (
    discrete_impedance_certificate,
    discrete_scattering_certificate,
    impedance_certificate,
    scattering_conservative_check,
    scattering_passive_via_cayley,
)

_SINGULAR = (SingularBlock, SingularFeedthrough, SingularGenerator,
             SingularShiftedFeedthrough, OneEigenvalue, MinusOneEigenvalue,
             NotWellPosed, RankDeficient)


def _tolerance_policy() -> dict:
    from .core import COND_LIMIT, RCOND_FLOOR, RANK_RTOL
    from .passivity import CONSERVATIVE_RTOL
    return {"rcond_floor": RCOND_FLOOR, "rank_rtol": RANK_RTOL,
            "block_condition_limit": COND_LIMIT,
            "conservative_rtol": CONSERVATIVE_RTOL}


@dataclass
class RunManifest:
    """Reproducibility record written next to pipeline outputs."""

    command: str
    config_digest: str
    seed: int
    version: str
    wall_time_s: float
    outputs: list[str] = field(default_factory=list)
    tolerances: dict = field(default_factory=_tolerance_policy)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=1)
            fh.write("\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_system(path: str):
    return system_from_json(json.loads(_read_text(path)))


def cmd_check(args) -> int:
    sys_obj = _load_system(args.system)
    if args.kind == "impedance":
        if not isinstance(sys_obj, StateSpaceSystem):
            print("error: impedance check needs a continuous system", file=sys.stderr)
            return 1
        cert = impedance_certificate(sys_obj)
    elif args.kind == "scattering":
        if isinstance(sys_obj, DiscreteSystem):
            cert = discrete_scattering_certificate(sys_obj)
        elif args.conservative:
            cert = scattering_conservative_check(sys_obj)
        else:
            # continuous scattering passivity has no direct LMI; decide it
            # through the internal Cayley transform
            cert = scattering_passive_via_cayley(sys_obj, args.sigma)
    else:  # discrete
        if isinstance(sys_obj, StateSpaceSystem):
            sys_obj = transforms.internal_cayley(sys_obj, args.sigma)
        cert = (discrete_impedance_certificate(sys_obj) if args.impedance
                else discrete_scattering_certificate(sys_obj))
    print(json.dumps(cert.to_json()))
    return 0 if cert.passive else 2


_TRANSFORM_OPS = ("fi", "of", "ti", "sr", "bi", "if", "cayley", "icayley",
                  "extcayley", "iextcayley", "recip", "hybrid", "ihybrid",
                  "chain", "ichain", "regularize")


def _resistance(args, split) -> transforms.ResistanceMatrix:
    m1, m2 = split
    R1 = args.R1 * np.eye(m1)
    R2 = (args.R2 if args.R2 is not None else args.R1) * np.eye(m2)
    return transforms.ResistanceMatrix(R1, R2)


def cmd_transform(args) -> int:
    sys_obj = _load_system(args.system)
    op = args.op
    if op in ("cayley",):
        out = transforms.internal_cayley(sys_obj, args.sigma)
    elif op == "icayley":
        out = transforms.inverse_internal_cayley(sys_obj)
    elif op == "extcayley":
        sys_obj = feedback.regularize(sys_obj, args.epsilon)
        out = transforms.external_cayley(sys_obj, _resistance(args, sys_obj.split))
    elif op == "iextcayley":
        out = transforms.inverse_external_cayley(sys_obj, _resistance(args, sys_obj.split))
    elif op == "regularize":
        out = feedback.regularize(sys_obj, args.epsilon)
    else:
        fn = {"fi": transforms.full_inversion, "of": transforms.output_flip,
              "ti": transforms.top_inversion, "sr": transforms.sign_reversal,
              "bi": transforms.bottom_inversion, "if": transforms.input_flip,
              "recip": transforms.internal_reciprocal,
              "hybrid": transforms.hybrid_transform,
              "ihybrid": transforms.inverse_hybrid,
              "chain": transforms.chain_transform,
              "ichain": transforms.inverse_chain}[op]
        out = fn(sys_obj)
    _write_text(args.output, json.dumps(system_to_json(out), indent=1) + "\n")
    return 0


def cmd_star(args) -> int:
    p = _load_system(args.p)
    q = _load_system(args.q)
    report = feedback.well_posedness(p, q)
    print(json.dumps(report.to_json()), file=sys.stderr)
    out = feedback.star_product(p, q)
    _write_text(args.output, json.dumps(system_to_json(out), indent=1) + "\n")
    return 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cmd_butterworth(args) -> int:
    text = _read_text(args.config)
    cfg_json = json.loads(text) if text.strip() else {}
    seed = int(cfg_json.pop("seed", 0))
    grid = cfg_json.pop("grid_hz", None)
    cfg = pipelines.ButterworthConfig(**cfg_json)
    t0 = time.monotonic()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = pipelines.butterworth_compose(cfg)
    freqs = (np.asarray(grid, dtype=float) if grid is not None
             else np.geomspace(1e4, 1e7, 400))
    sp = pipelines.butterworth_sparams(cfg, freqs)
    outputs = []

    def save(name: str, text_out: str) -> None:
        (outdir / name).write_text(text_out, encoding="utf-8")
        outputs.append(name)

    rows = ["f_hz,re_s11,im_s11,re_s21,im_s21"]
    for f, a, b in zip(sp.frequencies, sp.s11, sp.s21):
        rows.append(f"{f:.17g},{a.real:.17g},{a.imag:.17g},{b.real:.17g},{b.imag:.17g}")
    save("sparams.csv", "\n".join(rows) + "\n")
    for name, sys_obj in (("regularized.json", model.regularized),
                          ("impedance.json", model.impedance),
                          ("minimal.json", model.minimal)):
        save(name, json.dumps(system_to_json(sys_obj), indent=1) + "\n")
    manifest = RunManifest("butterworth", _digest(text), seed, __version__,
                           time.monotonic() - t0, outputs)
    manifest.write(outdir / "manifest.json")
    return 0


def cmd_waveguide(args) -> int:
    text = _read_text(args.config)
    cfg_json = json.loads(text) if text.strip() else {}
    if "area_csv" in cfg_json:
        area = websterfem.load_area_csv(cfg_json.pop("area_csv"))
    elif "area" in cfg_json:
        spec = cfg_json.pop("area")
        area = websterfem.AreaFunction(np.asarray(spec["nodes"]), np.asarray(spec["areas"]))
    else:
        area = pipelines.uniform_tube()
    cfg = pipelines.WaveguideConfig(area=area, **cfg_json)
    t0 = time.monotonic()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    comp = pipelines.waveguide_compose(cfg)
    report = pipelines.waveguide_report(comp)
    outputs = []
    res_rows = ["f_hz,decay_1_per_s"]
    for f, d in report.resonances:
        res_rows.append(f"{f:.17g},{d:.17g}")
    (outdir / "resonances.csv").write_text("\n".join(res_rows) + "\n", encoding="utf-8")
    outputs.append("resonances.csv")
    simulate.write_response_csv(outdir / "response.csv", report.response)
    outputs.append("response.csv")
    simulate.write_timeseries_csv(outdir / "timeseries.csv", report.time,
                                  {"flow": report.flow,
                                   "p_folds": report.pressure_folds,
                                   "p_mouth": report.pressure_mouth})
    outputs.append("timeseries.csv")
    (outdir / "composite.json").write_text(
        json.dumps(system_to_json(comp.composite_impedance), indent=1) + "\n",
        encoding="utf-8")
    outputs.append("composite.json")
    (outdir / "scheme.json").write_text(
        json.dumps(comp.scheme.to_json(), indent=1) + "\n", encoding="utf-8")
    outputs.append("scheme.json")
    manifest = RunManifest("waveguide", _digest(text), cfg.seed, __version__,
                           time.monotonic() - t0, outputs)
    manifest.write(outdir / "manifest.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="passivenet",
                                 description="passive system composition toolkit")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify passivity of a system file")
    p.add_argument("system")
    p.add_argument("--kind", choices=("impedance", "scattering", "discrete"),
                   default="impedance")
    p.add_argument("--conservative", action="store_true",
                   help="scattering: run the conservativity residual check")
    p.add_argument("--impedance", action="store_true",
                   help="discrete: use the impedance test instead of scattering")
    p.add_argument("--sigma", type=float, default=88200.0)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("transform", help="apply a representation change")
    p.add_argument("system")
    p.add_argument("--op", choices=_TRANSFORM_OPS, required=True)
    p.add_argument("--sigma", type=float, default=88200.0)
    p.add_argument("--R1", type=float, default=1.0)
    p.add_argument("--R2", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("star", help="Redheffer star product of two systems")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("butterworth", help="run the Butterworth pipeline")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_butterworth)

    p = sub.add_parser("waveguide", help="run the terminated-waveguide pipeline")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_waveguide)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _SINGULAR as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PassiveNetError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
