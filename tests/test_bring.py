import cmath
import math
import random

import pytest

import quintic.bring as bring
from quintic.bring import (
    ODE_CONTINUATION,
    SERIES,
    BringSolution,
    bring_root_continuation,
    hyper4f3,
    solve_bring,
)
from quintic.errors import NearBranchPoint, SeriesDivergence, SeriesOutOfRange
from quintic.mpfield import parse_complex, shared_ctx

from golden import GOLDEN_S
from polyref import BRING_BRANCH_POINTS, track_bring_root


def bring_residual(z, s):
    return abs(z**5 - z - s)


def series_oracle(x, ctx, upper_order):
    """Term-by-term 4F3 sum with the upper parameters in a shuffled order."""
    mp = ctx.mp
    up = [mp.mpf(a) / 5 for a in upper_order]
    low = [mp.mpf(1) / 2, mp.mpf(3) / 4, mp.mpf(5) / 4]
    total = mp.mpc(1)
    term = mp.mpc(1)
    for k in range(4000):
        num = (up[0] + k) * (up[1] + k) * (up[2] + k) * (up[3] + k)
        den = (low[0] + k) * (low[1] + k) * (low[2] + k) * (k + 1)
        term = term * num / den * x
        total += term
        if abs(term) < ctx.pow10(-ctx.digits - 12) * abs(total):
            break
    return total


def test_hyper_at_zero(ctx50):
    assert hyper4f3(ctx50.mpc(0), ctx50) == 1


def test_hyper_series_solves_bring_equation(ctx50):
    # x = 3125/256 s^4 with s real: -s*F must satisfy the defining equation
    x = ctx50.mpf("0.1")
    v = hyper4f3(x, ctx50)
    s = (x * 256 / 3125) ** ctx50.mpf("0.25")
    z = -s * v
    assert bring_residual(z, s) <= ctx50.pow10(-35)


def test_hyper_parameter_order_is_immaterial(ctx100):
    x = ctx100.mpc("0.3", "-0.55")
    main_text_order = series_oracle(x, ctx100, (3, 2, 1, 4))
    got = hyper4f3(x, ctx100)
    assert abs(got - main_text_order) <= ctx100.pow10(-90) * abs(got)


@pytest.mark.parametrize("x_text", ["0.1+0.05i", "0.5-0.1i", "0.78i"])
def test_hyper_full_working_accuracy(ctx200, x_text):
    x = parse_complex(x_text, ctx200)
    got = hyper4f3(x, ctx200)
    wide = shared_ctx(400)
    want = hyper4f3(wide.convert(x), wide)
    assert abs(wide.convert(got) - want) <= wide.pow10(-(ctx200.digits + 15)) * abs(want)


def test_hyper_out_of_range(ctx50):
    with pytest.raises(SeriesOutOfRange):
        hyper4f3(ctx50.mpc(1.05), ctx50)


def test_hyper_term_budget(ctx50, monkeypatch):
    # one term per digit is 50 terms; |x| = 0.5 needs about 200 at 50 digits
    monkeypatch.setattr(bring, "_SERIES_TERMS_PER_DIGIT", 1)
    with pytest.raises(SeriesDivergence, match="after 50 terms"):
        hyper4f3(ctx50.mpc("0.5"), ctx50)


def test_solve_bring_zero(ctx50):
    sol = solve_bring(ctx50.mpc(0), ctx50)
    assert sol.z == 0 and sol.strategy == SERIES


def test_solve_bring_small_real(ctx50):
    sol = solve_bring(ctx50.mpf("0.2"), ctx50)
    assert sol.strategy == SERIES
    assert sol.z.real < 0 and abs(sol.z.imag) < ctx50.pow10(-40)
    assert abs(sol.z + ctx50.mpf("0.2")) < ctx50.mpf("0.01")
    assert sol.residual <= ctx50.pow10(-35)


def test_small_s_expansion(ctx50):
    # z = -s - s^5 - 5 s^9 - ... near the origin
    for s_txt in ("0.001", "0.0005-0.0002i"):
        s = parse_complex(s_txt, ctx50)
        z = solve_bring(s, ctx50).z
        first = abs(z + s + s**5)
        assert first <= 10 * abs(s) ** 9
        assert abs(z + s + s**5 + 5 * s**9) <= 100 * abs(s) ** 13


def test_golden_s_continuation(ctx200):
    s = parse_complex(GOLDEN_S, ctx200)
    sol = solve_bring(s, ctx200)
    assert sol.strategy == ODE_CONTINUATION
    assert sol.residual <= ctx200.pow10(-190)
    assert sol.terms_or_steps == 8


def test_series_ode_agreement(ctx100, rng):
    # overlap region: both strategies must compute the same function element
    mp = ctx100.mp
    count = 0
    while count < 10:
        radius = rng.uniform(0.1, 0.5)
        angle = rng.uniform(0, 6.28)
        s = ctx100.mpc(radius, 0) * mp.exp(ctx100.mpc(0, angle))
        x = mp.mpf(3125) / 256 * s**4
        if abs(x) > mp.mpf("0.8"):
            continue
        count += 1
        z_series = solve_bring(s, ctx100, strategy="series").z
        z_ode = solve_bring(s, ctx100, strategy="ode").z
        assert abs(z_series - z_ode) <= ctx100.pow10(-90)


def test_ode_inside_disk_never_sums_the_series(ctx100, rng, monkeypatch):
    # the continuation inside the disk is C7's independent check of the
    # series, so it must march from 0 without calling hyper4f3; so must a
    # ring endpoint whose ring entry lies inside the disk
    def refuse(x, ctx):
        raise AssertionError("hyper4f3 called inside the disk")

    monkeypatch.setattr(bring, "hyper4f3", refuse)
    mp = ctx100.mp
    bp = mp.root(mp.mpf(256) / 3125, 4)
    points = [bp + ctx100.pow10(-5) * mp.expj(mp.pi + mp.mpf("0.6"))]
    for _ in range(10):
        radius = rng.uniform(0.05, 0.999 * bring._SERIES_RADIUS)
        points.append(ctx100.mpc(radius, 0) * mp.expj(rng.uniform(0, 2 * math.pi)))
    for s in points:
        sol = solve_bring(s, ctx100, strategy="ode")
        assert sol.strategy == ODE_CONTINUATION
        assert sol.residual <= ctx100.pow10(-90)


def test_series_handover_stays_on_branch(ctx200):
    # outside the disk the march starts from the series on its edge; 24 s
    # from all four sectors, half of them within 0.15 rad of a branch
    # point's angle, must land on the root tracked in floats from 0
    rng = random.Random(20261020)
    detoured = 0
    for i in range(24):
        bp = BRING_BRANCH_POINTS[i % 4]
        if i % 2:
            offset = rng.choice((-1, 1)) * rng.uniform(0.01, 0.15)
            radius = rng.uniform(0.62, 1.5)
        else:
            offset = rng.uniform(-math.pi / 4, math.pi / 4)
            radius = 10.0 ** rng.uniform(math.log10(0.52), 4.0)
        s = cmath.rect(radius, cmath.phase(bp) + offset)
        waypoints = bring._plan_waypoints(0j, s)
        if len(waypoints) > 2:
            # the first waypoint outside the disk is the detour's bulge
            assert abs(waypoints[1]) < bring._SERIES_RADIUS < abs(waypoints[2])
            detoured += 1
        sol = solve_bring(ctx200.mpc(s.real, s.imag), ctx200)
        assert sol.strategy == ODE_CONTINUATION
        assert abs(complex(sol.z) - track_bring_root(s)) <= 1e-9, s
    assert detoured >= 4


def test_conjugation_symmetry(ctx50, rng):
    mp = ctx50.mp
    for _ in range(8):
        s = ctx50.mpc(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        z = solve_bring(s, ctx50).z
        z_conj = solve_bring(mp.conj(s), ctx50).z
        assert abs(mp.conj(z) - z_conj) <= ctx50.pow10(-35) * max(1, abs(s))


def test_defining_identity_random(ctx50, rng):
    for _ in range(12):
        s = ctx50.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
        sol = solve_bring(s, ctx50)
        assert sol.residual <= ctx50.pow10(-35) * max(1, abs(s))


def test_far_field_targets(ctx50):
    # Taylor steps pinned: the sigma march from the series disk's edge to
    # |s| = 1.3, then the eps chart
    for s_txt, steps in (("1e6+2e5i", 27), ("-3e4", 37), ("1e12i", 37), ("5e3-5e3i", 16)):
        s = parse_complex(s_txt, ctx50)
        sol = solve_bring(s, ctx50)
        assert sol.strategy == ODE_CONTINUATION
        assert sol.residual <= ctx50.pow10(-35) * abs(s)
        assert sol.terms_or_steps == steps, s_txt


# s - s* per precision, with the Taylor steps pinned and, beyond 50 digits,
# the root of a 50-digit solve whose tau hop ran to the full series tolerance;
# "ring" enters its ring inside the series disk, so its march starts at 0.
# -1e-3-1e-400i sits just below the cut of tau = sqrt(s - s*), so the hop
# takes -tau; its frozen root is the real root at s* - 1e-3, 9.4e-400 away,
# and the partner root that +tau lands on is 0.037 away
NEAR_BRANCH = {
    50: (("1e-8", 22, None), ("1e-10+1e-10i", 24, None), ("-2e-7i", 5, None)),
    200: (
        (
            "ring",
            17,
            "-0.66699133010890446813576541524345370591737126450929"
            "+0.00054179770624594353087303947635458008891328985693482i",
        ),
        (
            "1e-10+1e-10i",
            24,
            "-0.66873767345575467505534062455053015235321846517663"
            "-0.0000063531382406218049575546689734315808496438684190277i",
        ),
        ("-1e-3-1e-400i", 16, "-0.65019927250362483047462799471907033988815952137495"),
    ),
    1000: (
        (
            "1e-8",
            22,
            "-0.66874030747642201278811725602576855466051799270862"
            "-0.000057824748215034280702162175289452997907252426703144i",
        ),
    ),
}


@pytest.mark.parametrize("digits", sorted(NEAR_BRANCH))
def test_near_branch_point_endpoint(digits):
    # just outside the refusal radius: reached through the tau chart
    ctx = shared_ctx(digits)
    mp = ctx.mp
    bp = mp.root(mp.mpf(256) / 3125, 4)
    for offset, steps, frozen in NEAR_BRANCH[digits]:
        if offset == "ring":  # the benchmark's ring_defect
            s = bp + ctx.pow10(-5) * mp.expj(mp.pi + mp.mpf("0.6"))
        else:
            s = bp + parse_complex(offset, ctx)
        sol = solve_bring(s, ctx)
        assert sol.strategy == ODE_CONTINUATION
        assert sol.residual <= ctx.pow10(15 - digits)
        assert sol.terms_or_steps == steps, offset
        if frozen is not None:
            assert abs(sol.z - parse_complex(frozen, ctx)) <= ctx.pow10(-30), offset


def test_near_branch_point_stays_on_branch(ctx200):
    # endpoints 1e-11 to 0.045 from each branch point, approached from the
    # origin's side: the tau hop must land on the tracked root, not on the
    # partner it meets at s*
    rng = random.Random(20261020)
    for i in range(16):
        bp = BRING_BRANCH_POINTS[i % 4]
        distance = 10.0 ** rng.uniform(-11.0, math.log10(0.045))
        s = bp + cmath.rect(distance, cmath.phase(-bp) + rng.uniform(-1.3, 1.3))
        sol = solve_bring(ctx200.mpc(s.real, s.imag), ctx200)
        assert sol.strategy == ODE_CONTINUATION
        assert abs(complex(sol.z) - track_bring_root(s)) <= 1e-9, s


def test_near_branch_point_refusal(ctx100):
    mp = ctx100.mp
    bp = mp.root(mp.mpf(256) / 3125, 4) * ctx100.mpc(0, 1)
    with pytest.raises(NearBranchPoint):
        bring_root_continuation(bp + ctx100.pow10(-60), ctx100)


def test_continuation_branch_is_odd_function_seed(ctx50):
    # z(s) continued from 0 satisfies z(-s) = -z(s) (the equation is odd)
    for s_txt in ("0.9+0.4i", "2-3i"):
        s = parse_complex(s_txt, ctx50)
        z_pos = solve_bring(s, ctx50).z
        z_neg = solve_bring(-s, ctx50).z
        assert abs(z_pos + z_neg) <= ctx50.pow10(-35) * max(1, abs(z_pos))


def test_detour_path_consistency(ctx50):
    # targets hiding directly behind a branch point: the detour must keep
    # the continuation on the same sheet as a nearby undetoured path
    mp = ctx50.mp
    bp = mp.root(mp.mpf(256) / 3125, 4)
    target = bp * ctx50.mpf(2)
    base = solve_bring(target + ctx50.mpc(0, "0.08"), ctx50).z
    detoured = solve_bring(target + ctx50.mpc(0, "0.002"), ctx50).z
    # continuity: the two results belong to the same branch (far from the
    # 2*pi/5 rotations that separate different Bring roots)
    assert abs(detoured - base) < ctx50.mpf("0.12")
