"""Command-line front end.

Exit codes: 0 success (and: passive/conservative for `check`), 1 usage or
I/O error, 2 not passive, 3 any `GateError` (a numerical gate fired: a
singular block, a near-spectrum solve, a non-well-posed loop, ...).
'-' stands for stdin/stdout on single-file commands.  Pipeline runs write
their outputs plus a manifest.json recording the command line, the SHA-256
of the config bytes, the seed (null for butterworth, which draws nothing),
the tool version, wall time and the output file list; the waveguide's only
randomness flows from its config seed, so rerun outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, feedback, pipelines, simulate, transforms, websterfem
from .core import system_from_json, system_to_json, DiscreteSystem, _is_finite_real
from .errors import DimensionMismatch, GateError, ParseError, PassiveNetError
from .passivity import (
    discrete_impedance_certificate,
    discrete_scattering_certificate,
    impedance_certificate,
    scattering_passive_via_cayley,
)

def _tolerance_policy() -> dict:
    from .core import RCOND_FLOOR, RANK_RTOL
    from .passivity import CONSERVATIVE_RTOL
    return {"rcond_floor": RCOND_FLOOR, "rank_rtol": RANK_RTOL,
            "conservative_rtol": CONSERVATIVE_RTOL}


@dataclass
class RunManifest:
    """Reproducibility record written next to pipeline outputs."""

    command: str
    config_digest: str
    seed: int | None
    version: str
    wall_time_s: float
    outputs: list[str] = field(default_factory=list)
    tolerances: dict = field(default_factory=_tolerance_policy)

    def write(self, path: Path) -> None:
        path.write_text(_json_text(self.__dict__), encoding="utf-8")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _load_system(path: str, op: str | None = None, discrete: bool = False):
    """The system in ``path``; for ``op``, it must have the time axis that
    ``discrete`` names."""
    sys_obj = system_from_json(json.loads(_read_text(path)))
    if op is not None and isinstance(sys_obj, DiscreteSystem) != discrete:
        axis = "discrete" if discrete else "continuous"
        raise DimensionMismatch(f"{op} needs a {axis}-time system, and {path} "
                                f"holds the other time axis")
    return sys_obj


def cmd_check(args) -> int:
    """The file's type picks continuous or discrete time, --kind the supply."""
    sys_obj = _load_system(args.system)
    if isinstance(sys_obj, DiscreteSystem):
        cert = (discrete_impedance_certificate(sys_obj) if args.kind == "impedance"
                else discrete_scattering_certificate(sys_obj))
    elif args.kind == "impedance":
        cert = impedance_certificate(sys_obj)
    else:
        # continuous scattering: the discrete test on the internal Cayley transform
        cert = scattering_passive_via_cayley(sys_obj, args.sigma)
    print(json.dumps(cert.to_json()))
    return 0 if cert.passive else 2


def _resistance(args, split) -> transforms.ResistanceMatrix:
    m1, m2 = split
    R1 = args.R1 * np.eye(m1)
    R2 = (args.R2 if args.R2 is not None else args.R1) * np.eye(m2)
    return transforms.ResistanceMatrix(R1, R2)


# --op name -> fn(system, args)
_TRANSFORMS = {
    "fi": lambda s, a: transforms.full_inversion(s),
    "of": lambda s, a: transforms.output_flip(s),
    "ti": lambda s, a: transforms.top_inversion(s),
    "sr": lambda s, a: transforms.sign_reversal(s),
    "bi": lambda s, a: transforms.bottom_inversion(s),
    "if": lambda s, a: transforms.input_flip(s),
    "cayley": lambda s, a: transforms.internal_cayley(s, a.sigma),
    "icayley": lambda s, a: transforms.inverse_internal_cayley(s),
    "extcayley": lambda s, a: transforms.external_cayley(feedback.regularize(s, a.epsilon),
                                                         _resistance(a, s.split)),
    "iextcayley": lambda s, a: transforms.inverse_external_cayley(s, _resistance(a, s.split)),
    "recip": lambda s, a: transforms.internal_reciprocal(s),
    "hybrid": lambda s, a: transforms.hybrid_transform(s),
    "ihybrid": lambda s, a: transforms.inverse_hybrid(s),
    "chain": lambda s, a: transforms.chain_transform(s),
    "ichain": lambda s, a: transforms.inverse_chain(s),
    "regularize": lambda s, a: feedback.regularize(s, a.epsilon),
}


def cmd_transform(args) -> int:
    sys_obj = _load_system(args.system, f"--op {args.op}", discrete=args.op == "icayley")
    out = _TRANSFORMS[args.op](sys_obj, args)
    _write_text(args.output, _json_text(system_to_json(out)))
    return 0


def cmd_star(args) -> int:
    p = _load_system(args.p, "star")
    q = _load_system(args.q, "star")
    report = feedback.well_posedness(p, q)
    print(json.dumps(report.to_json()), file=sys.stderr)
    out = feedback.star_product(p, q)
    _write_text(args.output, _json_text(system_to_json(out)))
    return 0


def _numbers(value, message: str) -> list:
    """``value``, if it is a list of finite numbers (no bools, no NaN or
    Infinity, which json.loads also reads, and nothing beyond double range);
    else ParseError(message, then the value)."""
    if not (isinstance(value, list) and all(map(_is_finite_real, value))):
        raise ParseError(f"{message}, got {json.dumps(value)}")
    return value


def _run_pipeline(args, config_type, extra_keys: set[str], compute) -> int:
    """Parse ``args.config`` (a JSON object over the fields of ``config_type``
    and the ``extra_keys`` that ``compute`` reads itself; empty means {}), run
    ``compute(config) -> (seed or None, {file name: text})`` and write the files,
    then manifest.json, to ``args.out``.  Only unknown keys are rejected here:
    the config class rejects a field value of the wrong type or out of range,
    naming the key, and ``compute`` checks its extra keys and the waveguide's
    inline ``area``."""
    text = _read_text(args.config)
    config = json.loads(text) if text.strip() else {}
    if not isinstance(config, dict):
        raise ParseError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = set(config) - {f.name for f in fields(config_type)} - extra_keys
    if unknown:
        raise ParseError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    t0 = time.monotonic()
    seed, files = compute(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        (outdir / name).write_text(body, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest = RunManifest(args.command, digest, seed, __version__,
                           time.monotonic() - t0, list(files))
    manifest.write(outdir / "manifest.json")
    return 0


def cmd_butterworth(args) -> int:
    def compute(config):
        grid = config.pop("grid_hz", None)
        freqs = (np.geomspace(1e4, 1e7, 400) if grid is None
                 else _numbers(grid, "config key 'grid_hz' must be a list of numbers or null"))
        cfg = pipelines.ButterworthConfig(**config)
        model = pipelines.butterworth_compose(cfg)
        sp = pipelines.butterworth_sparams(cfg, freqs)
        return None, {
            "sparams.csv": simulate._csv_text(
                ["f_hz", "re_s11", "im_s11", "re_s21", "im_s21"],
                [sp.frequencies, sp.s11.real, sp.s11.imag, sp.s21.real, sp.s21.imag]),
            **{f"{name}.json": _json_text(system_to_json(getattr(model, name)))
               for name in ("regularized", "impedance", "minimal")}}

    return _run_pipeline(args, pipelines.ButterworthConfig, {"grid_hz"}, compute)


def cmd_waveguide(args) -> int:
    def compute(config):
        area_csv, spec = config.pop("area_csv", None), config.pop("area", None)
        if area_csv is not None:
            if not isinstance(area_csv, str):
                raise ParseError(f"config key 'area_csv' must be a string or null, "
                                 f"got {json.dumps(area_csv)}")
            area = websterfem.load_area_csv(area_csv)
        elif spec is not None:
            if not isinstance(spec, dict) or not {"nodes", "areas"} <= spec.keys():
                raise ParseError("inline area needs an object with 'nodes' and 'areas'")
            area = websterfem.AreaFunction(
                *(_numbers(spec[key], f"area {key} must be finite numbers in a list")
                  for key in ("nodes", "areas")))
        else:
            area = pipelines.uniform_tube()
        cfg = pipelines.WaveguideConfig(area=area, **config)
        comp = pipelines.waveguide_compose(cfg)
        report = pipelines.waveguide_report(comp)
        res = report.resonances
        return cfg.seed, {
            "resonances.csv": simulate._csv_text(["f_hz", "decay_1_per_s"],
                                                 [res.frequencies, res.decay_rates]),
            "response.csv": simulate._response_csv(report.response),
            "timeseries.csv": simulate._timeseries_csv(
                report.time, {"flow": report.flow, "p_folds": report.pressure_folds,
                              "p_mouth": report.pressure_mouth}),
            "composite.json": _json_text(system_to_json(comp.composite_impedance)),
            "scheme.json": _json_text(comp.scheme.to_json())}

    return _run_pipeline(args, pipelines.WaveguideConfig, {"area_csv"}, compute)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1: 2 means "not passive"
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="passivenet", description="passive system composition toolkit")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify passivity of a system file")
    p.add_argument("system")
    p.add_argument("--kind", choices=("impedance", "scattering"), default="impedance")
    p.add_argument("--sigma", type=float, default=88200.0,
                   help="continuous scattering: the Cayley parameter of the test")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("transform", help="apply a representation change")
    p.add_argument("system")
    p.add_argument("--op", choices=tuple(_TRANSFORMS), required=True)
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

    for name, fn, what in (("butterworth", cmd_butterworth, "Butterworth"),
                           ("waveguide", cmd_waveguide, "terminated-waveguide")):
        p = sub.add_parser(name, help=f"run the {what} pipeline")
        p.add_argument("config")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PassiveNetError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
