import random
from itertools import permutations

import pytest

from quintic.mpfield import PrecisionCtx, parse_complex
from quintic.oracle import _CIRCLE_OFFSET, _float_estimates, aberth_solve, match_rootsets
from quintic.polyring import Poly

from golden import GOLDEN_COEFFS, GOLDEN_ROOTS
from polyref import max_coeff_mag


def circle_aberth(poly, ctx):
    """Reference: the Aberth-Ehrlich loop started on the oracle's circle alone.

    This is aberth_solve without its float phase, so the float-seeded roots
    can be checked against the roots the full-precision loop finds unaided.
    """
    mp = ctx.mp
    deg = poly.degree
    coeffs = [ctx.convert(c) for c in poly.coeffs]
    dcoeffs = [k * coeffs[k] for k in range(1, deg + 1)]

    def val_and_deriv(x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        dacc = dcoeffs[-1]
        for c in reversed(dcoeffs[:-1]):
            dacc = dacc * x + c
        return acc, dacc

    radius = 2 * max(mp.root(abs(coeffs[deg - k] / coeffs[deg]), k) for k in range(1, deg + 1))
    offset = mp.mpf(_CIRCLE_OFFSET) / 2**64
    pi2 = 2 * mp.pi
    zs = [radius * mp.exp(1j * pi2 * (k + offset + mp.mpf(1) / 4) / deg) for k in range(deg)]

    abs_coeffs = [abs(c) for c in coeffs]
    res_tol = ctx.pow10(-ctx.digits + 20)
    step_tol = ctx.pow10(-ctx.digits - 5)
    max_iter = 200 * ctx.digits
    for _ in range(max_iter):
        moved = ctx.mpf(0)
        done = True
        for i in range(deg):
            zi = zs[i]
            f, df = val_and_deriv(zi)
            if f == 0:
                continue
            if df == 0:
                zs[i] = zi + ctx.pow10(-(ctx.digits // 2)) * (1 + abs(zi))
                done = False
                continue
            newton = f / df
            aberth = mp.mpc(0)
            for j in range(deg):
                if j != i:
                    aberth += 1 / (zi - zs[j])
            denom = 1 - newton * aberth
            if denom == 0:
                correction = newton
            else:
                correction = newton / denom
            zs[i] = zi - correction
            moved = max(moved, abs(correction) / (1 + abs(zi)))
            # backward error: |f| against the sum of |c_k| |z|^k
            scale = abs_coeffs[-1]
            for c in reversed(abs_coeffs[:-1]):
                scale = scale * abs(zi) + c
            if abs(f) > res_tol * scale:
                done = False
        if done or moved <= step_tol:
            break
    else:
        pytest.fail(f"reference Aberth iteration did not settle in {max_iter} rounds")
    return zs


def brute_force_match(xs, ys):
    """Reference: (pairing, max_distance) recomputing every distance per permutation."""
    norm = 1 + max(max(abs(x) for x in xs), max(abs(y) for y in ys))
    best = None
    best_perm = None
    for perm in permutations(range(len(ys))):
        worst = max(abs(xs[i] - ys[perm[i]]) for i in range(len(xs)))
        if best is None or worst < best:
            best = worst
            best_perm = perm
    return best_perm, best / norm


def monic_from_roots(roots, ctx):
    coeffs = [ctx.mpc(1)]  # highest power first
    for root in roots:
        coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return Poly(list(reversed(coeffs)))


def degenerate_family_polys(rng, ctx):
    """The special families and 1e-8 clusters of the degenerate50 benchmark round."""

    def c(lo, hi):
        return ctx.mpc(round(rng.uniform(lo, hi), 2), round(rng.uniform(lo, hi), 2))

    one, zero = ctx.mpc(1), ctx.mpc(0)
    gap = ctx.mpf("1e-8")
    out = []
    for _ in range(2):
        t, b = c(-3, 3), ctx.mpc(round(rng.uniform(1, 50), 2), round(rng.uniform(-50, 50), 2))
        out.append(Poly([t**5 + b, 5 * t**4, 10 * t**3, 10 * t**2, 5 * t, one]))  # (x + t)^5 + b
        m = c(-20, 20)
        out.append(Poly([c(-500, 500), c(-500, 500), c(-500, 500), 2 * m**2 / 5, m, one]))  # 2m^2 = 5n
        free = [c(-5, 5) for _ in range(4)]
        out.append(monic_from_roots(free + [-sum(free)], ctx))  # m = 0
        out.append(Poly([c(-500, 500), c(-500, 500), c(-500, 500), zero, zero, one]))  # m = n = 0
    for _ in range(4):
        center = c(-2, 2)
        out.append(monic_from_roots([center, center + gap] + [c(-3, 3) for _ in range(3)], ctx))
    center = c(-2, 2)
    out.append(monic_from_roots([center, center + gap, center + 1j * gap, c(-3, 3), c(-3, 3)], ctx))
    return out


def test_double_root_tolerated(ctx50):
    # x^2 - 2x + 1: accuracy loss at the double root is expected
    roots = aberth_solve(Poly([ctx50.mpc(1), ctx50.mpc(-2), ctx50.mpc(1)]), ctx50)
    for r in roots:
        assert abs(r - 1) <= ctx50.pow10(-(ctx50.digits // 4))


def test_fifth_roots_of_unity(ctx50):
    roots = aberth_solve(Poly([ctx50.mpc(-1), 0, 0, 0, 0, ctx50.mpc(1)]), ctx50)
    mp = ctx50.mp
    for k in range(5):
        w = mp.exp(ctx50.mpc(0, 2 * mp.pi * k / 5))
        assert min(abs(r - w) for r in roots) <= ctx50.pow10(-30)


def test_golden_quintic_certified_independently(ctx200):
    # the iterative path must reproduce the 200-digit reference roots with
    # no help from the closed-form pipeline
    m, n, p, q, r = (parse_complex(t, ctx200) for t in GOLDEN_COEFFS)
    roots = aberth_solve(Poly([r, q, p, n, m, ctx200.mpc(1)]), ctx200)
    for ref_text in GOLDEN_ROOTS:
        ref = parse_complex(ref_text, ctx200)
        assert min(abs(x - ref) for x in roots) <= ctx200.pow10(-50) * abs(ref)


def test_residual_bound_many_random(ctx50):
    rng = random.Random(1234)
    for _ in range(1000):
        coeffs = [
            ctx50.mpc(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(5)
        ] + [ctx50.mpc(1)]
        poly = Poly(coeffs)
        scale = max(1, max_coeff_mag(poly))
        for root in aberth_solve(poly, ctx50):
            res = abs(
                ((((coeffs[5] * root + coeffs[4]) * root + coeffs[3]) * root + coeffs[2]) * root + coeffs[1]) * root
                + coeffs[0]
            )
            assert res <= ctx50.pow10(-30) * scale * max(1, abs(root)) ** 5


def test_determinism(ctx50):
    poly = Poly([ctx50.mpc(3, 1), ctx50.mpc(-2), ctx50.mpc(0, 5), ctx50.mpc(1), ctx50.mpc(0), ctx50.mpc(1)])
    a = aberth_solve(poly, ctx50)
    b = aberth_solve(poly, PrecisionCtx(digits=50))
    assert all(x == y for x, y in zip(a, b))


def test_low_degree_rejected(ctx50):
    with pytest.raises(ValueError):
        aberth_solve(Poly([ctx50.mpc(1)]), ctx50)


def test_match_identical_and_perturbed(ctx50):
    xs = [ctx50.mpc(k, -k) for k in range(5)]
    assert match_rootsets(xs, list(xs)).max_distance == 0
    bumped = [x + ctx50.pow10(-60) for x in xs]
    dist = match_rootsets(xs, bumped).max_distance
    assert ctx50.pow10(-62) <= dist <= ctx50.pow10(-59)


def test_match_beats_greedy_assignment(ctx50):
    # adversarial pairing where nearest-first greedy is suboptimal
    xs = [ctx50.mpc(0), ctx50.mpc(10), ctx50.mpc(20), ctx50.mpc(30), ctx50.mpc(40)]
    ys = [ctx50.mpc(4), ctx50.mpc(6), ctx50.mpc(24), ctx50.mpc(34), ctx50.mpc(44)]
    match = match_rootsets(xs, ys)

    remaining = list(range(5))
    worst_greedy = ctx50.mpf(0)
    for i in range(5):
        j = min(remaining, key=lambda jj: abs(xs[i] - ys[jj]))
        worst_greedy = max(worst_greedy, abs(xs[i] - ys[j]))
        remaining.remove(j)
    norm = 1 + max(max(abs(x) for x in xs), max(abs(y) for y in ys))
    assert match.max_distance <= worst_greedy / norm
    assert match.pairing is not None and sorted(match.pairing) == [0, 1, 2, 3, 4]


def test_match_rejects_length_mismatch(ctx50):
    with pytest.raises(ValueError):
        match_rootsets([ctx50.mpc(1)], [ctx50.mpc(1), ctx50.mpc(2)])


def test_float_seeded_roots_match_circle_started_loop(ctx200):
    m, n, p, q, r = (parse_complex(t, ctx200) for t in GOLDEN_COEFFS)
    polys = [Poly([r, q, p, n, m, ctx200.mpc(1)])]
    rng = random.Random(2026)
    for _ in range(20):
        polys.append(Poly([ctx200.mpc(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(5)] + [ctx200.mpc(1)]))
    for poly in polys:
        match = match_rootsets(aberth_solve(poly, ctx200), circle_aberth(poly, ctx200))
        assert match.max_distance <= ctx200.pow10(-150)


def test_float_seeded_degenerate_families_match(ctx50):
    rng = random.Random(50)
    for poly in degenerate_family_polys(rng, ctx50):
        match = match_rootsets(aberth_solve(poly, ctx50), circle_aberth(poly, ctx50))
        assert match.max_distance <= ctx50.pow10(-25)


def test_coefficient_past_float_range_starts_on_circle(ctx50):
    # 10^400 is no finite float, so the loop runs from the circle of radius
    # 2 * 10^80 alone; the backward-error stop must carry it in to the roots
    # 10^80 * w^k, w a primitive fifth root of unity
    mp = ctx50.mp
    poly = Poly([-ctx50.pow10(400), 0, 0, 0, 0, ctx50.mpc(1)])
    want = [ctx50.pow10(80) * mp.exp(2j * mp.pi * k / 5) for k in range(5)]
    got = aberth_solve(poly, ctx50)
    for z, j in zip(got, match_rootsets(got, want).pairing):
        assert abs(z - want[j]) <= ctx50.pow10(-40) * abs(want[j])


def test_float_phase_returns_only_distinct_finite_estimates(ctx50):
    # starts already on a root do not move; equal estimates would make the
    # full-precision update divide by zero
    assert _float_estimates([-1.0, 0.0, 1.0], [1.0, 1.0]) is None
    # equal starts off a root make the float update itself divide by zero
    assert _float_estimates([-1.0, 0.0, 1.0], [0.5, 0.5]) is None
    assert _float_estimates([-ctx50.pow10(400), 0.0, 1.0], [0.5, -0.5]) is None
    found = _float_estimates([-1.0, 0.0, 1.0], [0.5 + 0.5j, -0.5 - 0.1j])
    assert abs(found[0] - 1) <= 1e-15 and abs(found[1] + 1) <= 1e-15


def test_triple_root_survives_float_phase(ctx50):
    # the float phase stalls far from double precision on a triple root
    exact = [ctx50.mpc(1), ctx50.mpc(1), ctx50.mpc(1), ctx50.mpc(-2), ctx50.mpc(0, 3)]
    roots = aberth_solve(monic_from_roots(exact, ctx50), ctx50)
    match = match_rootsets(roots, exact)
    assert match.max_distance * (1 + max(abs(z) for z in roots + exact)) <= ctx50.pow10(-9)


def test_match_bit_identical_to_brute_force(ctx50):
    rng = random.Random(77)
    pool = [ctx50.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]

    def point():
        if rng.random() < 0.5:
            return rng.choice(pool)
        return ctx50.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) / 3

    for trial in range(200):
        xs = [point() for _ in range(5)]
        ys = list(xs) if trial % 4 == 0 else [point() for _ in range(5)]
        match = match_rootsets(xs, ys)
        pairing, distance = brute_force_match(xs, ys)
        assert match.pairing == pairing
        assert match.max_distance == distance
