"""Acceptance criteria for the closed-form quintic solver.

Each test prints one PASS line (run with ``pytest -s`` to see them all);
tolerances are fixed here, not calibrated.  The golden 200-digit worked
example and the seeded random populations are shared through session
fixtures so the suite stays within a few minutes.
"""

import random
import time

import pytest

from quintic.bring import solve_bring
from quintic.closedform import deflate_quintic, solve_quintic
from quintic.mpfield import PrecisionCtx, parse_complex
from quintic.oracle import aberth_solve, match_rootsets
from quintic.tschirnhaus import MonicQuintic, reduce_to_bring

from golden import (
    GOLDEN_CANDIDATE_2,
    GOLDEN_CANDIDATE_3,
    GOLDEN_CANDIDATE_4,
    GOLDEN_COEFFS,
    GOLDEN_ROOTS,
    GOLDEN_S,
)
from polyref import conjugate_quintic, deflate as poly_deflate, poly_from_roots, quintic_scale, random_quintic

POPULATION_SEED = 20260808
POPULATION_SIZE = 300
POPULATION_DIGITS = 100


def _population_quintic(rng, ctx, index):
    q = random_quintic(rng, ctx, magnitude=1000.0)
    if index == 0:  # forced: vanishing x^4 coefficient
        return MonicQuintic(ctx.mpc(0), q.n, q.p, q.q, q.r)
    if index == 1:  # forced: vanishing x^4 and x^3 coefficients
        return MonicQuintic(ctx.mpc(0), ctx.mpc(0), q.p, q.q, q.r)
    if index == 2:  # forced: 2 m^2 - 5 n = 0, the shift-invariant degeneracy
        return MonicQuintic(q.m, 2 * q.m * q.m / 5, q.p, q.q, q.r)
    return q


@pytest.fixture(scope="session")
def golden_report():
    ctx = PrecisionCtx(digits=200)
    quintic = MonicQuintic.make(ctx, *GOLDEN_COEFFS)
    start = time.perf_counter()
    report = solve_quintic(quintic, ctx)
    elapsed = time.perf_counter() - start
    return ctx, quintic, report, elapsed


@pytest.fixture(scope="session")
def population():
    ctx = PrecisionCtx(digits=POPULATION_DIGITS)
    rng = random.Random(POPULATION_SEED)
    solved = []
    for index in range(POPULATION_SIZE):
        quintic = _population_quintic(rng, ctx, index)
        report = solve_quintic(quintic, ctx)
        solved.append((quintic, report))
    return ctx, solved


def test_c1_golden_worked_example(golden_report):
    ctx, quintic, report, elapsed = golden_report
    s_ref = parse_complex(GOLDEN_S, ctx)
    s_err = abs(report.reduction.s - s_ref) / abs(s_ref)
    assert s_err <= ctx.pow10(-50)
    worst = ctx.mpf(0)
    for got, ref_text in zip(report.roots, GOLDEN_ROOTS):
        ref = parse_complex(ref_text, ctx)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= ctx.pow10(-50)
    assert max(report.residuals) <= ctx.pow10(-150)
    assert elapsed < 60
    print(
        f"\nACCEPTANCE C1 PASS: golden example reproduced; s and all five roots "
        f"agree to >= 50 digits (worst {ctx.mp.nstr(worst, 3)}), max residual "
        f"{ctx.mp.nstr(max(report.residuals), 3)}, {elapsed:.1f}s"
    )


def test_c2_bring_identity(golden_report):
    ctx, _, report, _ = golden_report
    z = report.bring.z
    s = report.reduction.s
    residual = abs(z**5 - z - s)
    assert residual <= ctx.pow10(-190)
    print(f"\nACCEPTANCE C2 PASS: |z^5 - z - s| = {ctx.mp.nstr(residual, 3)} <= 1e-190")


def test_c3_selection_evidence(golden_report):
    ctx, _, report, _ = golden_report
    refs = [
        abs(parse_complex(GOLDEN_CANDIDATE_2, ctx)),
        abs(parse_complex(GOLDEN_CANDIDATE_3, ctx)),
        abs(parse_complex(GOLDEN_CANDIDATE_4, ctx)),
    ]
    assert report.candidate_residuals[0] <= ctx.pow10(-150)
    for got, ref in zip(report.candidate_residuals[1:], refs):
        assert abs(got - ref) <= ref / 100
    shown = [ctx.mp.nstr(v, 6) for v in report.candidate_residuals]
    print(f"\nACCEPTANCE C3 PASS: candidate residuals {shown} match their reference magnitudes to 1%")


def test_c4_vanishing_checks(golden_report, population):
    ctx, _, report, _ = golden_report
    golden_worst = max(report.reduction.params.vanish_residuals)
    assert golden_worst <= ctx.pow10(-150)
    pctx, solved = population
    pop_worst = pctx.mpf(0)
    for _, rep in solved[:100]:
        if rep.reduction.params is None:
            continue  # pure-radical reductions have no substitution to check
        pop_worst = max(pop_worst, max(rep.reduction.params.vanish_residuals))
    assert pop_worst <= pctx.pow10(-50)
    print(
        f"\nACCEPTANCE C4 PASS: transformed y^4/y^3/y^2 coefficients vanish "
        f"(golden worst {ctx.mp.nstr(golden_worst, 3)}, population worst "
        f"{pctx.mp.nstr(pop_worst, 3)})"
    )


def test_c5_oracle_equivalence(population):
    ctx, solved = population
    worst = ctx.mpf(0)
    for quintic, report in solved:
        oracle_roots = aberth_solve(quintic.as_poly(ctx), ctx)
        match = match_rootsets(report.roots, oracle_roots)
        worst = max(worst, match.max_distance)
    assert worst <= ctx.pow10(-50)
    print(
        f"\nACCEPTANCE C5 PASS: {len(solved)} random quintics (forced cases "
        f"included) match the independent oracle; worst normalized distance "
        f"{ctx.mp.nstr(worst, 3)}"
    )


def test_c6_trivial_root_suites():
    worst_rel = None
    for digits in (50, 200):
        ctx = PrecisionCtx(digits=digits)
        tol = ctx.pow10(-digits + 20)
        mp = ctx.mp

        named = {
            "x^5-1": (MonicQuintic.make(ctx, 0, 0, 0, 0, -1),
                      [mp.exp(ctx.mpc(0, 2 * mp.pi * k / 5)) for k in range(5)]),
            "x^5-x": (MonicQuintic.make(ctx, 0, 0, 0, -1, 0),
                      [ctx.mpc(0), ctx.mpc(1), ctx.mpc(-1), ctx.mpc(0, 1), ctx.mpc(0, -1)]),
            "x^5+1": (MonicQuintic.make(ctx, 0, 0, 0, 0, 1),
                      [mp.exp(ctx.mpc(0, mp.pi * (2 * k + 1) / 5)) for k in range(5)]),
        }
        for name, (quintic, exact) in named.items():
            report = solve_quintic(quintic, ctx)
            dist = match_rootsets(report.roots, exact).max_distance
            assert dist <= tol, f"{name} at {digits} digits: {mp.nstr(dist, 3)}"
            worst_rel = dist if worst_rel is None else max(worst_rel, dist)

        rng = random.Random(424242 + digits)
        for _ in range(50):
            exact = [ctx.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
            poly = poly_from_roots(exact, ctx)
            quintic = MonicQuintic(poly.coeff(4), poly.coeff(3), poly.coeff(2), poly.coeff(1), poly.coeff(0))
            report = solve_quintic(quintic, ctx)
            dist = match_rootsets(report.roots, exact).max_distance
            assert dist <= tol
            worst_rel = max(worst_rel, dist)
    print(
        f"\nACCEPTANCE C6 PASS: named suites and 2x50 known-factor quintics "
        f"recovered exactly (worst normalized distance {mp.nstr(worst_rel, 3)})"
    )


def test_c7_hypergeometric_dual_path():
    ctx = PrecisionCtx(digits=100)
    mp = ctx.mp
    rng = random.Random(777)
    tol = ctx.pow10(-90)
    worst = ctx.mpf(0)
    count = 0
    while count < 50:
        radius = rng.uniform(0.05, 0.53)
        angle = rng.uniform(0.0, 6.283185)
        s = radius * mp.exp(ctx.mpc(0, angle))
        if abs(mp.mpf(3125) / 256 * s**4) > mp.mpf("0.8"):
            continue
        count += 1
        z_series = solve_bring(s, ctx, strategy="series").z
        z_ode = solve_bring(s, ctx, strategy="ode").z
        worst = max(worst, abs(z_series - z_ode))
    assert worst <= tol
    print(
        f"\nACCEPTANCE C7 PASS: series and continuation agree at 50 points "
        f"inside the disk (worst |diff| {mp.nstr(worst, 3)})"
    )


def test_c8_degree_guards():
    ctx = PrecisionCtx(digits=50)
    rng = random.Random(31415)
    worst = ctx.mpf(0)
    for _ in range(200):
        quintic = random_quintic(rng, ctx, magnitude=100.0)
        red = reduce_to_bring(quintic, ctx)  # raises a QuinticError on any degenerate solve
        if red.params is not None:
            worst = max(worst, max(red.params.vanish_residuals))
    assert worst <= ctx.pow10(-25)
    print(
        "\nACCEPTANCE C8 PASS: the determinant certifies every one of 200 "
        f"random reductions (worst vanish residual {ctx.mp.nstr(worst, 3)})"
    )


def test_c9_property_suite():
    ctx = PrecisionCtx(digits=50)
    mp = ctx.mp
    rng = random.Random(987654)
    tol = ctx.pow10(-25)
    checked = 0
    for _ in range(100):
        quintic = random_quintic(rng, ctx, magnitude=10.0)
        report = solve_quintic(quintic, ctx)
        scale = quintic_scale(quintic, ctx)

        # Vieta identities
        total = sum(report.roots, ctx.mpc(0))
        prod = ctx.mpc(1)
        for x in report.roots:
            prod *= x
        assert abs(total + quintic.m) <= tol * scale
        assert abs(prod + quintic.r) <= tol * scale

        # conjugation equivariance
        conj_roots = solve_quintic(conjugate_quintic(quintic, ctx), ctx).roots
        assert match_rootsets([mp.conj(x) for x in report.roots], conj_roots).max_distance <= tol

        # shift coherence
        t = ctx.mpc(rng.choice([1, -1, 2, -2]), rng.choice([0, 1, -1]))
        shifted_roots = solve_quintic(quintic.shifted(t, ctx), ctx).roots
        assert match_rootsets(report.roots, [x - t for x in shifted_roots]).max_distance <= tol

        # deflation-path agreement
        r1 = report.roots[0]
        quartic = deflate_quintic(quintic, r1, ctx)
        divided = poly_deflate(quintic.as_poly(ctx), r1, ctx)
        for direct, div in zip((quartic.p0, quartic.p1, quartic.p2, quartic.p3), divided.coeffs[:4]):
            assert abs(direct - div) <= ctx.pow10(-35) * max(1, abs(direct))
        checked += 1
    assert checked == 100
    print(
        "\nACCEPTANCE C9 PASS: Vieta, conjugation equivariance, shift "
        "coherence and deflation agreement hold on 100 seeded instances"
    )
