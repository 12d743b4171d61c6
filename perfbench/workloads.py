"""The benchmark workloads: inputs from a seed, one timed iteration, checks.

Each workload builds its inputs once (``build``), then runs ``iterate`` as
many times as the run allows.  Only ``iterate`` is timed.  ``outputs``
turns one iteration's results into named arrays: the first iteration's are
checked against oracles and recorded references, and every later
iteration's must be byte-identical to the first's.  ``findings`` are values
that are reported but never gated (known defects, certificate verdicts).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from passivenet import core, passivity, pipelines, simulate

import oracles

# Waveguide seeds whose outputs were recorded as references.  ``--seed n``
# selects SEED_POOL[n % len(SEED_POOL)], so every run can be checked
# against a reference and the same --seed always gives the same inputs.
SEED_POOL = (2024, 1, 7, 12345, 42)

# Small configurations of the self-test (the test suite's sizes).
SMOKE_WAVEGUIDE = dict(n=24, k=12, sample_points=80)
SMOKE_POINTS = 60

BUTTERWORTH_POINTS = 4000
BUTTERWORTH_SIGMA = 2.0 * math.pi * 1e6
WAVEGUIDE_POINTS = 300
VOWEL_SECONDS = 1.0


def config_seed(seed: int) -> int:
    return SEED_POOL[seed % len(SEED_POOL)]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool, Path], dict]
    iterate: Callable[[dict], dict]
    outputs: Callable[[dict, dict], dict]
    checks: Callable[[dict, dict, dict, Optional[dict]], list]
    findings: Callable[[dict, dict, dict], dict]
    compose_span: str
    sweep_span: Optional[str]          # span whose wall time a sweep rate uses
    step_span: Optional[str]
    reference_keys: tuple[str, ...]
    reference_stride: int = 1          # references keep every stride-th sample
    seeded: bool = True                # False: inputs do not depend on the seed

    def reference_prefix(self, inp: dict) -> str:
        """Key prefix of this input's references: its config seed, or "all"."""
        return str(inp["cfg"].seed) if self.seeded else "all"


def digest(outputs: dict) -> str:
    """SHA-256 over every output's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        arr = np.ascontiguousarray(outputs[key])
        h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _text(value: str) -> np.ndarray:
    return np.frombuffer(value.encode(), dtype=np.uint8)


def _cert_outputs(certs: dict) -> dict:
    out = {}
    for name, cert in certs.items():
        out[f"cert.{name}.margin"] = np.array([cert.margin])
        out[f"cert.{name}.verdict"] = _text(cert.verdict)
    return out


def _cert_findings(certs: dict) -> dict:
    return {f"certificate.{name}": f"{cert.verdict} margin {cert.margin:+.3e}"
            for name, cert in certs.items()}


def _system_outputs(prefix: str, sys, fields=("A", "B", "C", "D")) -> dict:
    return {f"{prefix}.{m}": getattr(sys, m) for m in fields}


def _reference_checks(wl: Workload, inp: dict, out: dict, ref: Optional[dict]) -> list:
    if ref is None:
        return []
    prefix = wl.reference_prefix(inp)
    checks = []
    for key in wl.reference_keys:
        want = ref[f"{prefix}/{key}"]
        got = out[key][::wl.reference_stride]
        err = oracles.normwise_error(got, want)
        checks.append(Check(f"reference.{key}", err <= oracles.REFERENCE_RTOL,
                            f"normwise rel err {err:.2e} "
                            f"(limit {oracles.REFERENCE_RTOL:.0e}, {want.size} values)"))
    return checks


def _sv_ratio(comp, k: int) -> float:
    sv = comp.interpolant.singular_values
    return float(sv[k] / sv[0])


# ---------------------------------------------------------------------------
# waveguide: the paper's headline application, as `passivenet waveguide` runs it


def _waveguide_build(seed: int, smoke: bool, workdir: Path) -> dict:
    size = SMOKE_WAVEGUIDE if smoke else {}
    cfg = pipelines.WaveguideConfig(area=pipelines.uniform_tube(),
                                    seed=config_seed(seed), **size)
    points = SMOKE_POINTS if smoke else WAVEGUIDE_POINTS
    return {"cfg": cfg, "grid": np.geomspace(30.0, 10000.0, points), "dir": workdir}


def _waveguide_iterate(inp: dict) -> dict:
    comp = pipelines.waveguide_compose(inp["cfg"])
    certs = {"tube": passivity.impedance_certificate(comp.tube.system),
             "load": passivity.impedance_certificate(comp.load),
             "composite": passivity.impedance_certificate(comp.composite_impedance),
             "discrete": passivity.discrete_impedance_certificate(comp.discrete)}
    rep = pipelines.waveguide_report(comp, response_grid_hz=inp["grid"])
    simulate.write_response_csv(inp["dir"] / "response.csv", rep.response)
    simulate.write_timeseries_csv(inp["dir"] / "timeseries.csv", rep.time,
                                  {"flow": rep.flow, "p_folds": rep.pressure_folds,
                                   "p_mouth": rep.pressure_mouth})
    return {"comp": comp, "certs": certs, "report": rep}


def _waveguide_outputs(inp: dict, res: dict) -> dict:
    comp, rep = res["comp"], res["report"]
    return {"n": np.array([comp.composite_impedance.n]),
            **_system_outputs("composite", comp.composite_impedance),
            "resonance_hz": rep.resonances.frequencies,
            "resonance_decay": rep.resonances.decay_rates,
            "sweep": rep.response.values[:, 0, 0],
            "sweep_ok": rep.response.ok,
            "flow": rep.flow,
            "p_folds": rep.pressure_folds,
            "p_mouth": rep.pressure_mouth,
            **_cert_outputs(res["certs"]),
            "response_csv": np.fromfile(inp["dir"] / "response.csv", dtype=np.uint8),
            "timeseries_csv": np.fromfile(inp["dir"] / "timeseries.csv", dtype=np.uint8)}


def _waveguide_checks(inp: dict, res: dict, out: dict, ref: Optional[dict]) -> list:
    cfg = inp["cfg"]
    A = res["comp"].composite_impedance.A
    lam = np.linalg.eigvals(A)
    worst = float(lam.real.max())
    limit = 1e-9 * max(1.0, float(np.abs(lam).max()))
    ok = out["sweep_ok"]
    return [Check("dimension", int(out["n"][0]) == 4 * cfg.n + cfg.k,
                  f"n = {int(out['n'][0])}, expected 4n + k = {4 * cfg.n + cfg.k}"),
            Check("left_half_plane", worst <= limit,
                  f"max Re lambda {worst:.3e} (limit {limit:.3e})"),
            Check("sweep_all_ok", bool(ok.all()),
                  f"{int(ok.sum())} of {ok.size} sweep points ok")
            ] + _reference_checks(WAVEGUIDE, inp, out, ref)


def _waveguide_findings(inp: dict, res: dict, out: dict) -> dict:
    return {**_cert_findings(res["certs"]),
            "loewner.sv_ratio": _sv_ratio(res["comp"], inp["cfg"].k)}


WAVEGUIDE = Workload(
    name="waveguide",
    why="the paper's 412-state terminated waveguide; the per-point gated LU of "
        "the 300-point sweep is most of the time",
    build=_waveguide_build, iterate=_waveguide_iterate, outputs=_waveguide_outputs,
    checks=_waveguide_checks, findings=_waveguide_findings,
    compose_span="pipelines.waveguide_compose",
    sweep_span="simulate.frequency_response", step_span="simulate.step_response",
    reference_keys=("resonance_hz", "resonance_decay", "sweep", "p_folds", "p_mouth"))


# ---------------------------------------------------------------------------
# butterworth: the same core sweep at the opposite size (n = 6)


def _butterworth_build(seed: int, smoke: bool, workdir: Path) -> dict:
    points = SMOKE_POINTS if smoke else BUTTERWORTH_POINTS
    return {"cfg": pipelines.ButterworthConfig(),
            "grid": np.geomspace(1e4, 1e7, points)}


def _butterworth_iterate(inp: dict) -> dict:
    model = pipelines.butterworth_compose(inp["cfg"])
    sp = pipelines.butterworth_sparams(inp["cfg"], inp["grid"])
    certs = {"impedance": passivity.impedance_certificate(model.impedance)}
    for name in ("minimal", "regularized_rotated", "regularized"):
        certs[name] = passivity.scattering_passive_via_cayley(getattr(model, name),
                                                              BUTTERWORTH_SIGMA)
    return {"model": model, "sparams": sp, "certs": certs}


def _butterworth_outputs(inp: dict, res: dict) -> dict:
    sp = res["sparams"]
    return {**_system_outputs("regularized", res["model"].regularized),
            **_system_outputs("impedance", res["model"].impedance),
            "s11": sp.s11, "s21": sp.s21, **_cert_outputs(res["certs"])}


def _butterworth_checks(inp: dict, res: dict, out: dict, ref: Optional[dict]) -> list:
    cfg = inp["cfg"]
    o11, o21 = oracles.ladder_sparams(inp["grid"], cfg.c1, cfg.l1, cfg.c3, cfg.r0)
    with np.errstate(all="ignore"):
        rel21 = float(np.max(np.abs(out["s21"] - o21) / np.abs(out["s21"])))
        abs11 = float(np.max(np.abs(np.abs(out["s11"]) - np.abs(o11))))
    return [Check("abcd_s21", rel21 <= oracles.ABCD_S21_RTOL,
                  f"max rel err {rel21:.2e} (limit {oracles.ABCD_S21_RTOL:.0e})"),
            Check("abcd_abs_s11", abs11 <= oracles.ABCD_S11_ATOL,
                  f"max abs err {abs11:.2e} (limit {oracles.ABCD_S11_ATOL:.0e})")
            ] + _reference_checks(BUTTERWORTH, inp, out, ref)


def _butterworth_findings(inp: dict, res: dict, out: dict) -> dict:
    model = res["model"]
    return {**_cert_findings(res["certs"]),
            "io_equivalent(regularized, regularized_rotated)":
                core.io_equivalent(model.regularized, model.regularized_rotated)}


BUTTERWORTH = Workload(
    name="butterworth",
    why="the same core sweep at n = 6 over 4000 points, where per-call overhead is "
        "the whole cost; bypasses websterfem and loewner",
    build=_butterworth_build, iterate=_butterworth_iterate,
    outputs=_butterworth_outputs, checks=_butterworth_checks,
    findings=_butterworth_findings,
    compose_span="pipelines.butterworth_compose",
    sweep_span="pipelines.butterworth_sparams", step_span=None,
    reference_keys=("s11", "s21"), seeded=False)


# ---------------------------------------------------------------------------
# vowel_stepping: 44 100 steps on the two-segment tube, no sweep


def _vowel_build(seed: int, smoke: bool, workdir: Path) -> dict:
    size = SMOKE_WAVEGUIDE if smoke else {}
    cfg = pipelines.WaveguideConfig(area=pipelines.two_segment_tube(),
                                    seed=config_seed(seed), **size)
    duration = 0.05 if smoke else VOWEL_SECONDS
    spec = simulate.ExcitationSpec("LFPulseTrain", f0=120.0, duration=duration,
                                   sample_rate=cfg.sigma / 2.0)
    return {"cfg": cfg, "spec": spec}


def _vowel_iterate(inp: dict) -> dict:
    comp = pipelines.waveguide_compose(inp["cfg"])
    flow = simulate.excitation_signal(inp["spec"])
    y, balance, states = simulate.step_response(comp.discrete, flow.reshape(-1, 1),
                                                record_energy=True)
    return {"comp": comp, "flow": flow, "y": y, "balance": balance,
            "states": states, "p_mouth": states @ comp.mouth_row}


def _vowel_outputs(inp: dict, res: dict) -> dict:
    states = res["states"]
    return {"n": np.array([res["comp"].composite_impedance.n]),
            **_system_outputs("discrete", res["comp"].discrete, ("Ad", "Bd", "Cd", "Dd")),
            "flow": res["flow"], "p_folds": res["y"][:, 0], "p_mouth": res["p_mouth"],
            "balance": res["balance"],
            "energy_scale": np.array([np.einsum("ij,ij->i", states, states).max()])}


def _vowel_checks(inp: dict, res: dict, out: dict, ref: Optional[dict]) -> list:
    names = ("flow", "p_folds", "p_mouth", "balance")
    bad = [k for k in names if not np.all(np.isfinite(out[k]))]
    return [Check("finite", not bad,
                  "all outputs finite" if not bad else f"non-finite: {', '.join(bad)}")
            ] + _reference_checks(VOWEL, inp, out, ref)


def energy_defect_max(balance: np.ndarray, energy_scale: float) -> float:
    """Largest per-step energy gain not paid for by the input, per unit state energy."""
    return float(balance.max() / energy_scale)


def _vowel_findings(inp: dict, res: dict, out: dict) -> dict:
    return {"simulate.energy_defect_max":
                energy_defect_max(out["balance"], float(out["energy_scale"][0])),
            "loewner.sv_ratio": _sv_ratio(res["comp"], inp["cfg"].k)}


VOWEL = Workload(
    name="vowel_stepping",
    why="44 100 time steps on the vowel-like two-segment tube with no sweep, so "
        "the Python stepping loop dominates and a sweep change must read no change",
    build=_vowel_build, iterate=_vowel_iterate, outputs=_vowel_outputs,
    checks=_vowel_checks, findings=_vowel_findings,
    compose_span="pipelines.waveguide_compose",
    sweep_span=None, step_span="simulate.step_response",
    reference_keys=("p_folds", "p_mouth"), reference_stride=20)


WORKLOADS = {wl.name: wl for wl in (WAVEGUIDE, BUTTERWORTH, VOWEL)}
