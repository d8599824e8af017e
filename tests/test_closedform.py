import random

import pytest

from quintic.bring import solve_bring
from quintic.closedform import (
    QuarticCoeffs,
    cardano_roots,
    deflate_quintic,
    ferrari_roots,
    select_quintic_root,
    solve_quintic,
)
from quintic.errors import (
    AmbiguousSelection,
    DegenerateCubic,
    NotARoot,
    QuinticError,
    SeriesOutOfRange,
    StageError,
)
from quintic.mpfield import PrecisionCtx, parse_complex, sqrt_principal
from quintic.oracle import aberth_solve, match_rootsets
from quintic.polyring import Poly
from quintic.tschirnhaus import MonicQuintic

from golden import GOLDEN_COEFFS, GOLDEN_ROOTS
from polyref import conjugate_quintic, deflate as poly_deflate, quintic_scale, random_quintic


# ---------------------------------------------------------------------------
# cardano
# ---------------------------------------------------------------------------


def test_cardano_cube_roots_of_unity(ctx50):
    roots = cardano_roots(1, 0, 0, -1, ctx50)
    assert abs(roots[0] - 1) < ctx50.pow10(-40)
    mags = sorted(abs(r - 1) for r in roots)
    assert mags[0] < ctx50.pow10(-40) and mags[1] > 1
    # x^3 + 1: core + wing cancels, so the other square-root sign is taken
    roots = cardano_roots(1, 0, 0, 1, ctx50)
    half_sqrt3 = ctx50.mp.sqrt(3) / 2
    for w in (ctx50.mpc(-1), ctx50.mpc(0.5, half_sqrt3), ctx50.mpc(0.5, -half_sqrt3)):
        assert min(abs(r - w) for r in roots) < ctx50.pow10(-40)


def test_cardano_triple_root(ctx50):
    roots = cardano_roots(1, -3, 3, -1, ctx50)
    for r in roots:
        assert abs(r - 1) < ctx50.pow10(-15)


def test_cardano_degenerate_leading(ctx50):
    with pytest.raises(DegenerateCubic):
        cardano_roots(0, 1, 1, 1, ctx50)


def test_cardano_matches_oracle(rng):
    ctx = PrecisionCtx(digits=100)
    for _ in range(10):
        coeffs = [ctx.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        got = cardano_roots(*coeffs, ctx)
        want = aberth_solve(Poly(list(reversed(coeffs))), ctx)
        best = min(
            max(abs(g - w) for g, w in zip(got, perm))
            for perm in (
                (want[0], want[1], want[2]),
                (want[0], want[2], want[1]),
                (want[1], want[0], want[2]),
                (want[1], want[2], want[0]),
                (want[2], want[0], want[1]),
                (want[2], want[1], want[0]),
            )
        )
        assert best <= ctx.pow10(-80) * (1 + max(abs(w) for w in want))


def test_cardano_residuals(ctx50, rng):
    for _ in range(20):
        c3, c2, c1, c0 = (ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4))
        scale = max(1, abs(c3), abs(c2), abs(c1), abs(c0))
        for r in cardano_roots(c3, c2, c1, c0, ctx50):
            res = abs(((c3 * r + c2) * r + c1) * r + c0)
            assert res <= ctx50.pow10(-35) * scale * max(1, abs(r)) ** 3


# ---------------------------------------------------------------------------
# ferrari
# ---------------------------------------------------------------------------


def test_ferrari_x4_minus_1(ctx50):
    roots = ferrari_roots(QuarticCoeffs(0, 0, 0, ctx50.mpc(-1)), ctx50)
    want = [ctx50.mpc(1), ctx50.mpc(-1), ctx50.mpc(0, 1), ctx50.mpc(0, -1)]
    for w in want:
        assert min(abs(r - w) for r in roots) < ctx50.pow10(-40)


def test_ferrari_x4_plus_1(ctx50):
    roots = ferrari_roots(QuarticCoeffs(0, 0, 0, ctx50.mpc(1)), ctx50)
    mp = ctx50.mp
    for k in (1, 3, 5, 7):
        w = mp.exp(ctx50.mpc(0, mp.pi * k / 4))
        assert min(abs(r - w) for r in roots) < ctx50.pow10(-40)


def test_ferrari_double_roots_degenerate_e(ctx50):
    # (x^2 + 1)^2: the resolvent path hits e ~ 0 and must fall back cleanly
    roots = ferrari_roots(QuarticCoeffs(0, 2, 0, 1), ctx50)
    for r in roots:
        assert min(abs(r - ctx50.mpc(0, 1)), abs(r + ctx50.mpc(0, 1))) < ctx50.pow10(-20)


def test_ferrari_random_vs_oracle(rng):
    ctx = PrecisionCtx(digits=100)
    for _ in range(10):
        q = QuarticCoeffs(*(ctx.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(4)))
        got = ferrari_roots(q, ctx)
        want = aberth_solve(
            Poly([q.p0, q.p1, q.p2, q.p3, ctx.mpc(1)]), ctx
        )
        for w in want:
            assert min(abs(r - w) for r in got) <= ctx.pow10(-70) * (1 + abs(w))


def test_ferrari_resolvent_identity(ctx50, rng):
    # the resolvent expansion must satisfy its defining factorization
    # identity (p3 g - p1)^2 = 4 (p3^2/4 + 2g - p2)(g^2 - p0)
    for _ in range(20):
        p3, p2, p1, p0 = (ctx50.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(4))
        r2 = -p2 / 2
        r1 = (p1 * p3 - 4 * p0) / 4
        r0 = -(p1 * p1 + p3 * p3 * p0 - 4 * p2 * p0) / 8
        for g in cardano_roots(ctx50.mpc(1), r2, r1, r0, ctx50):
            lhs = (p3 * g - p1) ** 2
            rhs = 4 * (p3 * p3 / 4 + 2 * g - p2) * (g * g - p0)
            assert abs(lhs - rhs) <= ctx50.pow10(-30) * max(1, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# selection and deflation
# ---------------------------------------------------------------------------


def test_select_known_factor(ctx50):
    # (x - 1)(x^4 + 1): the selected candidate must be an exact quintic root
    q = MonicQuintic.make(ctx50, -1, 0, 0, 1, -1)
    report = solve_quintic(q, ctx50)
    assert min(abs(x - 1) for x in report.roots) <= ctx50.pow10(-25)


def test_select_rejects_ambiguity(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    omega = ctx50.mp.exp(ctx50.mpc(0, 2 * ctx50.mp.pi / 5))
    eps = ctx50.pow10(-40)
    with pytest.raises(AmbiguousSelection):
        # two near-roots with comparable residuals: no decisive winner
        select_quintic_root(q, [1 + eps, omega + eps, ctx50.mpc(5), ctx50.mpc(7)], ctx50)


def test_select_reports_residuals(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    root, index, residuals = select_quintic_root(
        q, [ctx50.mpc(3), ctx50.mpc(1), ctx50.mpc(5), ctx50.mpc(7)], ctx50
    )
    assert index == 1 and root == 1
    assert len(residuals) == 4 and residuals[1] < residuals[0]


def test_deflate_quintic_examples(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    quartic = deflate_quintic(q, ctx50.mpc(1), ctx50)
    for v in (quartic.p3, quartic.p2, quartic.p1, quartic.p0):
        assert abs(v - 1) < ctx50.pow10(-45)

    q2 = MonicQuintic.make(ctx50, 0, 0, 0, -1, 0)
    quartic2 = deflate_quintic(q2, ctx50.mpc(0), ctx50)
    assert quartic2.p3 == 0 and quartic2.p2 == 0 and quartic2.p1 == 0
    assert abs(quartic2.p0 + 1) < ctx50.pow10(-45)


def test_deflate_quintic_rejects_non_root(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    with pytest.raises(NotARoot):
        deflate_quintic(q, ctx50.mpc(2), ctx50)


def test_deflation_paths_agree(ctx50, rng):
    for _ in range(10):
        q = random_quintic(rng, ctx50)
        root = aberth_solve(q.as_poly(ctx50), ctx50)[0]
        quartic = deflate_quintic(q, root, ctx50)
        divided = poly_deflate(q.as_poly(ctx50), root, ctx50)
        for direct, div in zip(
            (quartic.p0, quartic.p1, quartic.p2, quartic.p3), divided.coeffs[:4]
        ):
            assert abs(direct - div) <= ctx50.pow10(-30) * max(1, abs(direct))


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------


def test_solve_fifth_roots_of_unity(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    report = solve_quintic(q, ctx50)
    mp = ctx50.mp
    for k in range(5):
        w = mp.exp(ctx50.mpc(0, 2 * mp.pi * k / 5))
        assert min(abs(x - w) for x in report.roots) <= ctx50.pow10(-30)


def test_solve_x5_minus_x(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, -1, 0)
    report = solve_quintic(q, ctx50)
    for w in (0, 1, -1, ctx50.mpc(0, 1), ctx50.mpc(0, -1)):
        assert min(abs(x - w) for x in report.roots) <= ctx50.pow10(-30)


def test_solve_random_vs_oracle(ctx50, rng):
    for _ in range(10):
        q = random_quintic(rng, ctx50)
        report = solve_quintic(q, ctx50)
        oracle = aberth_solve(q.as_poly(ctx50), ctx50)
        match = match_rootsets(report.roots, oracle)
        assert match.max_distance <= ctx50.pow10(-25)


def test_solve_report_invariants(ctx50, rng):
    q = random_quintic(rng, ctx50)
    report = solve_quintic(q, ctx50)
    scale = quintic_scale(q, ctx50)
    assert max(report.residuals) <= ctx50.pow10(-25) * scale
    total = sum(report.roots, ctx50.mpc(0))
    prod = ctx50.mpc(1)
    for x in report.roots:
        prod *= x
    assert abs(total + q.m) <= ctx50.pow10(-25) * scale
    assert abs(prod + q.r) <= ctx50.pow10(-25) * scale
    assert len(report.candidate_residuals) == 4
    assert report.precision_used >= ctx50.digits


def test_conjugation_equivariance(ctx50, rng):
    mp = ctx50.mp
    for _ in range(5):
        q = random_quintic(rng, ctx50)
        direct = solve_quintic(q, ctx50).roots
        conj = solve_quintic(conjugate_quintic(q, ctx50), ctx50).roots
        match = match_rootsets([mp.conj(x) for x in direct], conj)
        assert match.max_distance <= ctx50.pow10(-25)


def test_golden_roots_in_order(ctx200):
    q = MonicQuintic.make(ctx200, *GOLDEN_COEFFS)
    report = solve_quintic(q, ctx200)
    for got, ref_text in zip(report.roots, GOLDEN_ROOTS):
        ref = parse_complex(ref_text, ctx200)
        assert abs(got - ref) <= ctx200.pow10(-50) * abs(ref)


def test_pure_radical_shifted_power(ctx50):
    q = MonicQuintic.make(ctx50, 10, 40, 80, 80, 33)
    report = solve_quintic(q, ctx50)
    assert report.bring.strategy == "pure_radical"
    mp = ctx50.mp
    for k in range(5):
        w = mp.exp(ctx50.mpc(0, mp.pi * (2 * k + 1) / 5)) - 2
        assert min(abs(x - w) for x in report.roots) <= ctx50.pow10(-30)


def test_repeated_root_quintic_collapses_or_reports(ctx50):
    # x^3 (x+1)^2: multiple roots sit outside the solver's contract; it must
    # either produce verified roots or fail with a structured error
    q = MonicQuintic.make(ctx50, 2, 1, 0, 0, 0)
    try:
        report = solve_quintic(q, ctx50)
    except (StageError, QuinticError):
        return
    assert max(report.residuals) <= ctx50.pow10(-25) * quintic_scale(q, ctx50)


def test_solver_wraps_stage_errors(ctx50, monkeypatch):
    # a structural Bring failure is raised with its stage, not retried at
    # higher precision and not silently replaced by another path
    calls = []

    def out_of_range(s, ctx):
        calls.append(ctx.digits)
        raise SeriesOutOfRange("|x| = 5.2 > 0.9")

    monkeypatch.setattr("quintic.closedform.solve_bring", out_of_range)
    q = MonicQuintic.make(ctx50, *GOLDEN_COEFFS)
    with pytest.raises(StageError) as exc:
        solve_quintic(q, ctx50)
    assert exc.value.stage == "bring"
    assert isinstance(exc.value.cause, SeriesOutOfRange)
    assert calls == [50]


def test_unknown_strategy_rejected(ctx50):
    # a misspelt strategy is refused before any work
    with pytest.raises(ValueError):
        solve_bring(ctx50.mpc("0.1"), ctx50, strategy="bogus")
