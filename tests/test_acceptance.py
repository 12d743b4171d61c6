"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with its measured figure (run with -s to see them inline).

Criteria 4b and 4c are kept at their stated targets deliberately even
though the targets are not attainable with the standard-series component
values they prescribe; see the README "known deviations" section.  The
independent ABCD-ladder oracle puts |s21| at 1 MHz at -4.906 dB (the
half-power corner of the 2.2 nF / 6.8 nF / 14 uH / 50 ohm ladder sits at
931 kHz, not 1 MHz), and the band-edge sag it causes dominates the
passband-deviation comparison against mismatched terminations.
"""

import time

import numpy as np

from conftest import (
    random_conservative,
    random_impedance_passive,
    random_resistance,
    random_system,
)
from oracles import bessel_j1_quadrature, ladder_impedance_closed_form, struve_h1_quadrature

from passivenet import feedback, loewner, pipelines, simulate, transforms, websterfem
from passivenet.core import StateSpaceSystem, io_equivalent, minimality, transfer_function
from passivenet.errors import NotWellPosed, SingularBlock
from passivenet.passivity import (
    CONSERVATIVE,
    discrete_impedance_certificate,
    discrete_scattering_certificate,
    impedance_certificate,
    scattering_conservative_check,
)
from passivenet.pipelines import (
    ButterworthConfig,
    WaveguideConfig,
    butterworth_compose,
    butterworth_sparams,
    two_segment_tube,
    uniform_tube,
    waveguide_compose,
)
from passivenet.transforms import ResistanceMatrix, external_cayley


def report(num, ok, detail):
    stamp = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {stamp} - {detail}")
    return ok


def _close(a: StateSpaceSystem, b: StateSpaceSystem, rtol: float) -> float:
    worst = 0.0
    for x, y in ((a.A, b.A), (a.B, b.B), (a.C, b.C), (a.D, b.D)):
        scale = max(np.abs(y).max(), 1.0)
        if x.size:
            worst = max(worst, float(np.abs(x - y).max() / scale))
    return worst


def test_criterion_1_round_trips():
    """FI/OF/TI/SR involutions and Cayley/external-Cayley/chain/hybrid round
    trips recover 100 random well-conditioned systems to relative 1e-10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        m1 = int(rng.choice([1, 2]))
        sys = random_system(rng, n, m1, m1)
        worst = max(worst, _close(transforms.full_inversion(transforms.full_inversion(sys)), sys, 0))
        worst = max(worst, _close(transforms.output_flip(transforms.output_flip(sys)), sys, 0))
        worst = max(worst, _close(transforms.top_inversion(transforms.top_inversion(sys)), sys, 0))
        worst = max(worst, _close(transforms.sign_reversal(transforms.sign_reversal(sys)), sys, 0))
        stable = sys.replace(A=sys.A - (1.0 + np.abs(sys.A).max()) * np.eye(n))
        worst = max(worst, _close(
            transforms.inverse_internal_cayley(transforms.internal_cayley(stable, 88200.0)),
            stable, 0))
        R = random_resistance(rng, m1, m1)
        imp = random_impedance_passive(rng, n, m1, m1)
        worst = max(worst, _close(
            transforms.inverse_external_cayley(transforms.external_cayley(imp, R), R), imp, 0))
        worst = max(worst, _close(transforms.inverse_chain(transforms.chain_transform(sys)), sys, 0))
        worst = max(worst, _close(transforms.inverse_hybrid(transforms.hybrid_transform(sys)), sys, 0))
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 5.0
    assert report(1, ok, f"round trips worst rel {worst:.2e}, {dt:.2f} s")


def test_criterion_2_passivity_preservation():
    """Verdict agreement across transforms and star products on 100 random
    constructed-passive systems; conservative stays conservative to 1e-9."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    ok = True
    detail = []
    for i in range(100):
        n = int(rng.integers(1, 7))
        conservative = bool(i % 2)
        if conservative:
            sys = random_conservative(rng, n, 1, 1)
        else:
            sys = random_impedance_passive(rng, n, 1, 1, proper=True)
        base = impedance_certificate(sys)
        assert base.passive
        # external Cayley: scattering passive for every R (three sampled)
        for _ in range(3):
            R = random_resistance(rng, 1, 1)
            scat = external_cayley(sys, R)
            cert = discrete_scattering_certificate(transforms.internal_cayley(scat, 10.0))
            ok &= cert.passive
            if conservative:
                res = scattering_conservative_check(scat)
                ok &= res.verdict == CONSERVATIVE
                ok &= res.margin <= 1e-9 * res.test_matrix_norm
        # internal Cayley keeps the impedance verdict for any sigma
        for sigma in (1.0, 88200.0):
            dcert = discrete_impedance_certificate(transforms.internal_cayley(sys, sigma))
            ok &= dcert.passive
            if conservative:
                ok &= dcert.verdict == CONSERVATIVE
        # reciprocal transforms keep the verdict when they exist
        if not conservative:
            ok &= impedance_certificate(transforms.full_inversion(sys)).passive
            ok &= impedance_certificate(transforms.internal_reciprocal(sys)).passive
    # star products of 50 admissible passive pairs stay scattering passive
    for i in range(50):
        conservative = bool(i % 2)
        gen = random_conservative if conservative else random_impedance_passive
        pi_ = gen(rng, int(rng.integers(1, 5)), 1, 1)
        qi_ = gen(rng, int(rng.integers(1, 5)), 1, 1)
        Rp = random_resistance(rng, 1, 1)
        Rq = ResistanceMatrix(Rp.R2, random_resistance(rng, 1, 1).R2)
        p = external_cayley(pi_, Rp)
        q = external_cayley(qi_, Rq)
        if not feedback.well_posedness(p, q).well_posed:
            continue
        prod = feedback.star_product(p, q)
        if conservative:
            res = scattering_conservative_check(prod)
            ok &= res.verdict == CONSERVATIVE and res.margin <= 1e-9 * res.test_matrix_norm
        else:
            ok &= discrete_scattering_certificate(
                transforms.internal_cayley(prod, 5.0)).passive
    dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    assert report(2, ok, f"verdict agreement on 100 systems + 50 star pairs, {dt:.2f} s")


def test_criterion_3_cascade_of_chains():
    """star_product and star_via_chain agree at 20 random points to 1e-8
    on 20 admissible random pairs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    pairs = 0
    worst = 0.0
    while pairs < 20:
        p = random_system(rng, int(rng.integers(1, 6)), 1, 1)
        q = random_system(rng, int(rng.integers(1, 6)), 1, 1)
        q = q.replace(D=q.D / (1.0 + np.linalg.norm(q.D, 2)))
        try:
            via = feedback.star_via_chain(p, q)
        except (SingularBlock, NotWellPosed):
            continue
        direct = feedback.star_product(p, q)
        mags = np.exp(rng.uniform(np.log(0.3), np.log(30.0), 20))
        angles = rng.uniform(0.1, np.pi - 0.1, 20)
        for s in mags * np.exp(1j * angles):
            a = transfer_function(direct, s)
            b = transfer_function(via, s)
            worst = max(worst, np.abs(a - b).max() / max(np.abs(a).max(), 1e-30))
        pairs += 1
    dt = time.monotonic() - t0
    ok = worst <= 1e-8
    assert report(3, ok, f"20 pairs x 20 points, worst rel {worst:.2e}, {dt:.2f} s")


BW = ButterworthConfig(c1=2.2e-9, c2=3.4e-9, l1=14e-6, r0=50.0, epsilon=1e-9)


def test_criterion_4a_butterworth_impedance():
    """Composite impedance matches the closed-form lossless ladder at 50
    log-spaced frequencies in [10 kHz, 10 MHz] to relative 1e-4."""
    t0 = time.monotonic()
    model = butterworth_compose(BW)
    worst = 0.0
    for f in np.geomspace(1e4, 1e7, 50):
        s = 2j * np.pi * f
        want = ladder_impedance_closed_form(BW, s)
        got = transfer_function(model.impedance, s)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 10.0
    assert report("4a", ok, f"impedance vs closed form worst rel {worst:.2e}, {dt:.2f} s")


def test_criterion_4b_butterworth_corner_level():
    """|s21| at 1 MHz within 0.5 dB of -3 dB.  Not attainable with these
    component values: the true level is -4.906 dB (ABCD oracle); kept at
    the stated target on purpose."""
    sp = butterworth_sparams(BW, np.array([1e6]))
    level_db = 20 * np.log10(abs(sp.s21[0]))
    ok = abs(level_db - (-3.0103)) <= 0.5
    report("4b", ok, f"|s21(1 MHz)| = {level_db:.3f} dB vs target -3.01 +/- 0.5 dB")
    assert ok, ("stated corner-level target missed as analysed: the "
                "standard-series values shift the half-power corner to 931 kHz")


def test_criterion_4c_butterworth_ripple_comparison():
    """Max passband (<= 1 MHz) deviation of |s21| from 0 dB at R0 = 50
    strictly smaller than at R0 = 20 and R0 = 80.  Not attainable: the
    band-edge sag at 1 MHz (4.9 dB for R0 = 50) dominates the comparison
    and mismatched R0 = 80 sags less there (2.2 dB); kept as stated."""
    grid = np.geomspace(1e4, 1e6, 60)
    dev = {}
    for r0 in (20.0, 50.0, 80.0):
        cfg = ButterworthConfig(c1=BW.c1, c2=BW.c2, l1=BW.l1, r0=r0, epsilon=BW.epsilon)
        sp = butterworth_sparams(cfg, grid)
        dev[r0] = np.abs(20 * np.log10(np.abs(sp.s21))).max()
    ok = dev[50.0] < dev[20.0] and dev[50.0] < dev[80.0]
    report("4c", ok, f"max |s21| dB deviation <=1 MHz: 20 ohm {dev[20.0]:.2f}, "
                     f"50 ohm {dev[50.0]:.2f}, 80 ohm {dev[80.0]:.2f}")
    assert ok, ("stated ripple comparison fails as analysed: band-edge sag "
                "dominates; see README known deviations")


def test_criterion_4d_butterworth_minimal():
    """The 5-state minimal realisation is I/O-equivalent to the eps = 1e-12
    product at tol 1e-6 and passes the minimality test."""
    t0 = time.monotonic()
    cfg = ButterworthConfig(c1=BW.c1, c2=BW.c2, l1=BW.l1, r0=BW.r0, epsilon=1e-12)
    model = butterworth_compose(cfg)
    equiv = io_equivalent(model.regularized_rotated, model.minimal, tol=1e-6)
    rc, ro, is_minimal = minimality(model.minimal)
    dt = time.monotonic() - t0
    ok = equiv and is_minimal
    assert report("4d", ok, f"io-equivalent {equiv}, Kalman ranks ({rc},{ro}) of 5, {dt:.2f} s")


def test_criterion_5_fem_suite():
    """Uniform tube L = 0.175 m, c = 343 m/s, n = 99: first five resonances
    within 0.1% of k*980 Hz; conservative LMI residual <= 1e-8 of scale;
    stiffness kernel contains the constants to 1e-10."""
    t0 = time.monotonic()
    model = websterfem.assemble(uniform_tube(0.175, 1e-4), 99, 343.0, 1.225)
    lam = np.linalg.eigvals(model.system.A)
    freqs = np.sort(lam.imag[lam.imag > 1.0]) / (2 * np.pi)
    worst = max(abs(freqs[k - 1] - k * 980.0) / (k * 980.0) for k in range(1, 6))
    cert = impedance_certificate(model.system)
    lmi_ok = cert.verdict == CONSERVATIVE and \
        cert.test_matrix_norm <= 1e-8 * (1.0 + np.abs(model.system.A).max())
    const = np.zeros(2 * 99)
    const[:100] = 1.0
    kernel_resid = np.abs(model.stiffness @ const).max() / np.abs(model.stiffness).max()
    dt = time.monotonic() - t0
    ok = worst <= 1e-3 and lmi_ok and kernel_resid <= 1e-10 and dt < 20.0
    assert report(5, ok, f"resonances worst rel {worst:.2e}, LMI {cert.verdict}, "
                         f"kernel resid {kernel_resid:.2e}, {dt:.2f} s")


def test_criterion_6_special_functions():
    """J1 and H1 match the quadrature oracle to 1e-10 for 50 points with
    |z| <= 16 and to 1e-8 for 50 points with 16 < |z| <= 80."""
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst_small = worst_large = 0.0
    for _ in range(50):
        z = rng.uniform(0.05, 16.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        for fast, slow in ((loewner.bessel_j1, bessel_j1_quadrature),
                           (loewner.struve_h1, struve_h1_quadrature)):
            want = slow(z)
            worst_small = max(worst_small, abs(fast(z) - want) / max(abs(want), 1e-300))
    for _ in range(50):
        z = rng.uniform(16.0, 80.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        for fast, slow in ((loewner.bessel_j1, bessel_j1_quadrature),
                           (loewner.struve_h1, struve_h1_quadrature)):
            want = slow(z)
            worst_large = max(worst_large, abs(fast(z) - want) / max(abs(want), 1e-300))
    dt = time.monotonic() - t0
    ok = worst_small <= 1e-10 and worst_large <= 1e-8
    assert report(6, ok, f"small worst {worst_small:.2e} (<=1e-10), "
                         f"large worst {worst_large:.2e} (<=1e-8), {dt:.2f} s")


def test_criterion_7_loewner_suite():
    """Order-16 reduction of 2m = 300 piston samples reproduces Z on a
    500-point grid up to 20 kHz with max relative error <= 1e-4."""
    t0 = time.monotonic()
    piston = loewner.PistonParams.from_mouth_area(1e-4, 1.225, 343.0)
    scheme = loewner.default_scheme(piston, m=150, seed=2024)
    vm, vl = loewner.sample_function(scheme, lambda s: loewner.piston_impedance(s, piston))
    interp = loewner.reduce_order(loewner.realify(
        loewner.loewner_matrices(scheme, vm, vl)), 16)
    worst = 0.0
    for f in np.linspace(20.0, 20000.0, 500):
        s = 2j * np.pi * f
        want = loewner.piston_impedance(s, piston)
        got = transfer_function(interp.reduced, s)[0, 0]
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 30.0
    assert report(7, ok, f"k=16 fit worst rel {worst:.2e} on 500-pt grid, {dt:.2f} s")


def test_criterion_8_composite_waveguide():
    """Composite dimension 4n + k = 412; all eigenvalues in the closed left
    half-plane; the piston load strictly increases every decay rate; only
    the lowest resonance is materially sensitive to the regularisation
    (checked on the vowel-like two-segment geometry, whose constriction
    separates the sensitivities; a uniform tube moves all quarter-wave
    modes together)."""
    t0 = time.monotonic()
    cfg = WaveguideConfig(area=uniform_tube(0.175, 1e-4), n=99, k=16)
    comp = waveguide_compose(cfg)
    dim_ok = comp.composite_impedance.n == 412
    lam = np.linalg.eigvals(comp.composite_impedance.A)
    lhp_ok = lam.real.max() <= 1e-9 * max(1.0, np.abs(lam).max())
    tube_res = simulate.resonances(comp.tube.system)
    comp_res = simulate.resonances(comp.composite_impedance)
    decay_ok = comp_res.decay_rates.min() > max(np.abs(tube_res.decay_rates).max(), 1e-12)

    f1s, f3s = [], []
    for factor in (0.1, 0.2, 0.3):
        cfg2 = WaveguideConfig(area=two_segment_tube(), n=99, k=16,
                               epsilon_factor=factor)
        res = simulate.resonances(waveguide_compose(cfg2).composite_impedance)
        f1s.append(res.frequencies[0])
        f3s.append(res.frequencies[2])
    mono = f1s[0] > f1s[1] > f1s[2] or f1s[0] < f1s[1] < f1s[2]
    rel1 = (max(f1s) - min(f1s)) / f1s[0]
    rel3 = (max(f3s) - min(f3s)) / f3s[0]
    eps_ok = mono and rel1 > rel3
    dt = time.monotonic() - t0
    ok = dim_ok and lhp_ok and decay_ok and eps_ok
    assert report(8, ok, f"dim {comp.composite_impedance.n}, max Re {lam.real.max():.2e}, "
                         f"min decay {comp_res.decay_rates.min():.2f}/s, "
                         f"f_R1 span {rel1:.2e} vs f_R3 span {rel3:.2e}, {dt:.1f} s")


def test_criterion_9_energy_balance():
    """Stepping the conservative FEM discrete system 1e4 steps with LF input
    keeps the per-step impedance balance as equality within 1e-9 of scale."""
    t0 = time.monotonic()
    model = websterfem.assemble(uniform_tube(0.175, 1e-4), 99, 343.0, 1.225)
    phi = transforms.internal_cayley(model.system, 88200.0)
    spec = simulate.ExcitationSpec("LFPulseTrain", f0=120.0,
                                   duration=10000 / 44100.0, sample_rate=44100.0)
    flow = simulate.lf_pulse_train(spec)[:10000]
    u = np.zeros((10000, 2))
    u[:, 0] = flow
    _, balance, states = simulate.step_response(phi, u, record_energy=True)
    scale = 1.0 + (states ** 2).sum(axis=1).max()
    worst = np.abs(balance).max() / scale
    dt = time.monotonic() - t0
    ok = worst <= 1e-9
    assert report(9, ok, f"1e4 steps, worst balance defect {worst:.2e} of scale, {dt:.1f} s")


def test_criterion_10_determinism(tmp_path):
    """Repeated pipeline runs with one seed produce byte-identical numeric
    outputs."""
    t0 = time.monotonic()
    cfg = WaveguideConfig(area=uniform_tube(), n=32, k=10, sample_points=80, seed=99)
    texts = []
    for run in range(2):
        comp = waveguide_compose(cfg)
        rep = pipelines.waveguide_report(
            comp, simulate.ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.005,
                                          sample_rate=44100.0),
            response_grid_hz=np.geomspace(50, 5000, 60))
        res_path = tmp_path / f"res{run}.csv"
        ts_path = tmp_path / f"ts{run}.csv"
        simulate.write_timeseries_csv(ts_path, rep.time, {"p": rep.pressure_folds})
        with open(res_path, "w", encoding="utf-8") as fh:
            for f, d in rep.resonances:
                fh.write(f"{f:.17g},{d:.17g}\n")
        texts.append(res_path.read_bytes() + ts_path.read_bytes())
    sp1 = butterworth_sparams(BW, np.geomspace(1e4, 1e7, 30))
    sp2 = butterworth_sparams(BW, np.geomspace(1e4, 1e7, 30))
    bw_ok = np.array_equal(sp1.s21, sp2.s21) and np.array_equal(sp1.s11, sp2.s11)
    dt = time.monotonic() - t0
    ok = texts[0] == texts[1] and bw_ok
    assert report(10, ok, f"waveguide reruns byte-identical: {texts[0] == texts[1]}, "
                          f"butterworth identical: {bw_ok}, {dt:.1f} s")
