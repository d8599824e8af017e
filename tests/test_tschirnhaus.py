import random

import pytest

import quintic.tschirnhaus as tschirnhaus
from quintic.errors import DegenerateLeading, PrecisionExhausted, QuinticError
from quintic.mpfield import PrecisionCtx, parse_complex
from quintic.oracle import aberth_solve, match_rootsets
from quintic.tschirnhaus import (
    _D_INDEX,
    _XI_BRANCH,
    MonicQuintic,
    TraceForms,
    _form_root,
    multiplication_matrix,
    reduce_to_bring,
    transformed_poly,
)
from quintic.closedform import cardano_roots, solve_quintic

from golden import GOLDEN_COEFFS, GOLDEN_S
from polyref import (
    fit_coeffs,
    max_coeff_mag,
    paper_elimination_matrix,
    poly_from_roots,
    poly_sub,
    random_quintic,
)


# ---------------------------------------------------------------------------
# the paper's elimination matrix, the reference for the certificate
# ---------------------------------------------------------------------------


def test_matrix_entry_m25(ctx50):
    q = MonicQuintic.make(ctx50, 2, 0, 0, 0, 0)
    m = paper_elimination_matrix(q, 0, 0, 0, ctx50.mpc(1), ctx50)
    assert m[1][4].coeffs == (ctx50.mpc(1),)  # m - d = 2 - 1


def test_matrix_entry_m21_is_r(ctx50, rng):
    for _ in range(5):
        q = random_quintic(rng, ctx50)
        m = paper_elimination_matrix(q, rng.random(), rng.random(), rng.random(), rng.random(), ctx50)
        assert m[1][0].coeffs == (q.r,)


def test_matrix_entry_m22(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 3, 0)
    m = paper_elimination_matrix(q, ctx50.mpc(1), 0, 0, 0, ctx50)
    entry = m[1][1]  # -y + q - a = 2 - y
    assert entry.coeff(0) == 2 and entry.coeff(1) == -1


def test_matrix_diagonal_carries_y(ctx50, rng):
    q = random_quintic(rng, ctx50)
    m = paper_elimination_matrix(q, 1, 2, 3, 4, ctx50)
    signs = [1, -1, -1, 1, -1]
    for i in range(5):
        for j in range(5):
            e = m[i][j]
            if i == j:
                assert e.coeff(1) == signs[i]
            else:
                assert e.degree <= 0


# ---------------------------------------------------------------------------
# transformed polynomial
# ---------------------------------------------------------------------------


def test_transformed_matches_paper_matrix(ctx200):
    # the golden quintic and 20 random ones, each at its solved substitution:
    # row i of the paper's matrix times (+, -, -, +, -)[i] is column i of y*I + M_T
    rng = random.Random(1729)
    quintics = [MonicQuintic.make(ctx200, *GOLDEN_COEFFS)]
    quintics += [random_quintic(rng, ctx200, 1000.0) for _ in range(20)]
    signs = [1, -1, -1, 1, -1]
    for q in quintics:
        red = reduce_to_bring(q, ctx200)
        q = q if red.shift == 0 else q.shifted(red.shift, ctx200)
        params = (red.params.a, red.params.b, red.params.c, red.params.d)
        mt = multiplication_matrix(q, *params, ctx200)
        paper = paper_elimination_matrix(q, *params, ctx200)
        scale = max(abs(v) for row in mt for v in row)
        for i in range(5):
            for j in range(5):
                entry = paper[i][j]
                assert entry.degree <= 1
                assert abs(signs[i] * entry.coeff(0) - mt[j][i]) <= ctx200.pow10(-180) * scale
                assert signs[i] * entry.coeff(1) == (1 if i == j else 0)
        poly = transformed_poly(q, *params, ctx200)
        assert poly.degree == 5 and poly.coeff(5) == 1  # exactly: y sits on the diagonal with coefficient 1


def test_transformed_x5_minus_1_identity_substitution(ctx50):
    # with a=b=c=d=0 the substitution is y = -x^4, so over the fifth roots
    # of unity the image polynomial is exactly y^5 + 1
    q = MonicQuintic.make(ctx50, 0, 0, 0, 0, -1)
    poly = transformed_poly(q, 0, 0, 0, 0, ctx50)
    assert abs(poly.coeff(0) - 1) < ctx50.pow10(-45)
    for k in range(1, 5):
        assert abs(poly.coeff(k)) < ctx50.pow10(-45)


def test_transformed_matches_root_product(ctx50, rng):
    # independent oracle: the transformed polynomial is the monic polynomial
    # whose roots are -T(x_i) over the quintic's roots
    for _ in range(5):
        q = random_quintic(rng, ctx50, 2.0)
        a, b, c, d = (ctx50.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        got = transformed_poly(q, a, b, c, d, ctx50)
        xs = aberth_solve(q.as_poly(ctx50), ctx50)
        images = [-(((x + d) * x + c) * x + b) * x - a for x in xs]
        want = poly_from_roots(images, ctx50)
        scale = max(1, max_coeff_mag(want))
        assert max_coeff_mag(poly_sub(got, want)) <= ctx50.pow10(-30) * scale


# ---------------------------------------------------------------------------
# parameter solves
# ---------------------------------------------------------------------------


def test_solve_a_only_q(ctx50):
    q = MonicQuintic.make(ctx50, 0, 0, 0, 5, 0)
    a = TraceForms(q, ctx50).a(0, 0, 0)
    assert abs(a - 4) < ctx50.pow10(-45)


def test_solve_a_only_m(ctx50):
    q = MonicQuintic.make(ctx50, 1, 0, 0, 0, 0)
    a = TraceForms(q, ctx50).a(0, 0, 0)
    assert abs(a + ctx50.mpf(1) / 5) < ctx50.pow10(-45)


def test_solve_a_kills_quartic_coefficient(ctx50, rng):
    for _ in range(5):
        q = random_quintic(rng, ctx50)
        b, c, d = (ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        a = TraceForms(q, ctx50).a(b, c, d)
        poly = transformed_poly(q, a, b, c, d, ctx50)
        assert abs(poly.coeff(4)) <= ctx50.pow10(-30) * max(1, max_coeff_mag(poly))


def _poly3_in_d_public(q, alpha, eta, xi, ctx):
    """Sample the y^3 coefficient over d through public entry points only."""
    forms = TraceForms(q, ctx)
    vals = []
    polys = []
    for dn in range(4):
        d = ctx.mpc(dn)
        b = alpha * d + xi
        c = d + eta
        a = forms.a(b, c, d)
        poly = transformed_poly(q, a, b, c, d, ctx)
        polys.append(poly)
        vals.append((dn, poly.coeff(3)))
    ref = max(max_coeff_mag(p) for p in polys)
    floor = ctx.pow10(-(ctx.digits // 2)) * max(1, ref)
    return fit_coeffs(vals, 2, ctx, scale=max(floor, *(abs(v) for _, v in vals))), ref


def test_alpha_zeroes_d2_coefficient(ctx50, rng):
    for _ in range(4):
        q = random_quintic(rng, ctx50)
        alpha = TraceForms(q, ctx50).alpha()
        coeffs, ref = _poly3_in_d_public(q, alpha, ctx50.mpc(0), ctx50.mpc(0), ctx50)
        assert abs(coeffs[2]) <= ctx50.pow10(-20) * max(1, ref)


def test_alpha_bring_branch_formula(ctx50):
    # for m = n = 0 the degenerate (affine) alpha equation has the closed
    # form -(10 q - 3 p^2 + 25 r) / (5 (4 q + 3 p)); with p = r = 0, q = 1
    # that is -1/2
    q = MonicQuintic.make(ctx50, 0, 0, 0, 1, 0)
    alpha = TraceForms(q, ctx50).alpha()
    assert abs(alpha + ctx50.mpf(1) / 2) < ctx50.pow10(-40)


def test_alpha_bring_branch_formula_general(ctx50, rng):
    for _ in range(5):
        p = ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        qq = ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        quintic = MonicQuintic(ctx50.mpc(0), ctx50.mpc(0), p, qq, r)
        alpha = TraceForms(quintic, ctx50).alpha()
        want = -(10 * qq - 3 * p * p + 25 * r) / (5 * (4 * qq + 3 * p))
        assert abs(alpha - want) <= ctx50.pow10(-35) * max(1, abs(want))


def test_eta_xi_zero_the_y3_coefficient(ctx50, rng):
    for _ in range(4):
        q = random_quintic(rng, ctx50)
        forms = TraceForms(q, ctx50)
        alpha = forms.alpha()
        eta, xi = forms.eta_xi(alpha)
        coeffs, ref = _poly3_in_d_public(q, alpha, eta, xi, ctx50)
        for c in coeffs:
            assert abs(c) <= ctx50.pow10(-20) * max(1, ref)


def test_eta_xi_precision_escalation_stability(rng):
    ctx_lo = PrecisionCtx(digits=100)
    ctx_hi = PrecisionCtx(digits=200)
    for _ in range(20):
        coeffs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(5)]
        q_lo = MonicQuintic.make(ctx_lo, *coeffs)
        q_hi = MonicQuintic.make(ctx_hi, *coeffs)
        forms_lo = TraceForms(q_lo, ctx_lo)
        forms_hi = TraceForms(q_hi, ctx_hi)
        eta_lo, xi_lo = forms_lo.eta_xi(forms_lo.alpha())
        eta_hi, xi_hi = forms_hi.eta_xi(forms_hi.alpha())
        for lo, hi in ((eta_lo, eta_hi), (xi_lo, xi_hi)):
            assert abs(ctx_hi.convert(lo) - hi) <= ctx_hi.pow10(-80) * max(1, abs(hi))


def test_all_cardano_roots_give_valid_d(rng):
    # the y^2 coefficient is cubic in d; every root of that cubic is a valid
    # d choice, not just the branch the pipeline pins
    ctx = PrecisionCtx(digits=100)
    for _ in range(10):
        q = random_quintic(rng, ctx)
        forms = TraceForms(q, ctx)
        alpha = forms.alpha()
        eta, xi = forms.eta_xi(alpha)
        samples = []
        polys = []
        for dn in range(5):
            d = ctx.mpc(dn)
            b = alpha * d + xi
            c = d + eta
            a = forms.a(b, c, d)
            poly = transformed_poly(q, a, b, c, d, ctx)
            polys.append(poly)
            samples.append((dn, poly.coeff(2)))
        ref = max(max_coeff_mag(p) for p in polys)
        floor = ctx.pow10(-(ctx.digits // 2)) * max(1, ref)
        t0, t1, t2, t3 = fit_coeffs(samples, 3, ctx, scale=max(floor, *(abs(v) for _, v in samples)))
        for d in cardano_roots(t3, t2, t1, t0, ctx):
            b = alpha * d + xi
            c = d + eta
            a = forms.a(b, c, d)
            poly = transformed_poly(q, a, b, c, d, ctx)
            scale = max(1, abs(poly.coeff(1)), abs(poly.coeff(0)))
            for k in (4, 3, 2):
                assert abs(poly.coeff(k)) <= ctx.pow10(-40) * scale


def test_solve_d_zeroes_y2_coefficient(ctx50, rng):
    for _ in range(4):
        q = random_quintic(rng, ctx50)
        forms = TraceForms(q, ctx50)
        alpha = forms.alpha()
        eta, xi = forms.eta_xi(alpha)
        d = forms.d(alpha, eta, xi)
        b = alpha * d + xi
        c = d + eta
        a = forms.a(b, c, d)
        poly = transformed_poly(q, a, b, c, d, ctx50)
        scale = max(1, abs(poly.coeff(1)), abs(poly.coeff(0)))
        assert abs(poly.coeff(2)) <= ctx50.pow10(-20) * scale


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------


def test_reduce_golden_s_50_digits(ctx200):
    q = MonicQuintic.make(ctx200, *GOLDEN_COEFFS)
    red = reduce_to_bring(q, ctx200)
    ref = parse_complex(GOLDEN_S, ctx200)
    assert abs(red.s - ref) <= ctx200.pow10(-50) * abs(ref)
    assert max(red.params.vanish_residuals) <= ctx200.pow10(-150)


def test_reduction_construction_identities(ctx50, rng):
    for _ in range(5):
        q = random_quintic(rng, ctx50)
        red = reduce_to_bring(q, ctx50)
        p = red.params
        assert abs(p.b - (p.alpha * p.d + p.xi)) <= ctx50.pow10(-45) * max(1, abs(p.b))
        assert abs(p.c - (p.d + p.eta)) <= ctx50.pow10(-45) * max(1, abs(p.c))
        denom = red.quartic_root_scale
        assert abs(denom**4 - (-red.A)) <= ctx50.pow10(-40) * max(1, abs(red.A))


def test_reduction_s_identity(ctx50, rng):
    from quintic.mpfield import pow_rational

    for _ in range(5):
        q = random_quintic(rng, ctx50)
        red = reduce_to_bring(q, ctx50)
        lhs = red.s * pow_rational(-red.A, 5, 4, ctx50) + red.B
        bound = ctx50.pow10(-40) * max(abs(pow_rational(-red.A, 5, 4, ctx50)), abs(red.B))
        assert abs(lhs) <= bound


def test_root_mapping_property(ctx50, rng):
    # the substitution maps every quintic root to a Bring-form root
    for _ in range(5):
        q = random_quintic(rng, ctx50)
        red = reduce_to_bring(q, ctx50)
        p = red.params
        shifted = q if red.shift == 0 else q.shifted(red.shift, ctx50)
        scale = max(1, abs(red.A), abs(red.B))
        for x in aberth_solve(shifted.as_poly(ctx50), ctx50):
            y = (((x + p.d) * x + p.c) * x + p.b) * x + p.a
            y = -y
            assert abs(y**5 + red.A * y + red.B) <= ctx50.pow10(-20) * scale


def test_pure_radical_family(ctx50):
    # (x + 2)^5 + 1: no quartic substitution exists, fifth roots do the job
    q = MonicQuintic.make(ctx50, 10, 40, 80, 80, 33)
    red = reduce_to_bring(q, ctx50)
    assert red.pure_radical == "quintic"
    # the recorded shift is subtracted from downstream roots: fifth roots of
    # -1 minus 2 are exactly the roots of (x + 2)^5 + 1
    assert abs(red.shift - 2) < ctx50.pow10(-45)


def test_shift_invariant_degeneracy_resolved_without_shift(ctx50):
    # 2 m^2 = 5 n makes the alpha quadratic degenerate for every pre-shift;
    # the affine fallback must absorb it
    q = MonicQuintic.make(ctx50, 5, 10, 3, -2, 7)
    red = reduce_to_bring(q, ctx50)
    assert red.shift == 0
    assert max(red.params.vanish_residuals) <= ctx50.pow10(-25)


def test_shift_ladder_rescues_degenerate_alpha(ctx50):
    # m = n = 0 with 4q = -3p: the alpha quadratic keeps only its constant,
    # so shift 0 raises DegenerateLeading and the first rung, t = 1, solves it
    rng = random.Random(4)
    for _ in range(4):
        p = ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = MonicQuintic(ctx50.mpc(0), ctx50.mpc(0), p, -3 * p / 4, r)
        with pytest.raises(DegenerateLeading):
            TraceForms(q, ctx50).alpha()
        report = solve_quintic(q, ctx50)
        assert report.reduction.shift == 1
        oracle = aberth_solve(q.as_poly(ctx50), ctx50)
        assert match_rootsets(report.roots, oracle).max_distance <= ctx50.pow10(-25)


def test_shift_coherence(ctx50, rng):
    from quintic.closedform import solve_quintic

    for _ in range(5):
        q = random_quintic(rng, ctx50)
        t = ctx50.mpc(rng.choice([1, -1, 2]), rng.choice([0, 1, -1]))
        shifted = q.shifted(t, ctx50)
        roots_direct = solve_quintic(q, ctx50).roots
        roots_shifted = [x - t for x in solve_quintic(shifted, ctx50).roots]
        match = match_rootsets(roots_direct, roots_shifted)
        assert match.max_distance <= ctx50.pow10(-25)


def test_shifted_coefficients_match_eval(ctx50, rng):
    q = random_quintic(rng, ctx50)
    t = ctx50.mpc("0.5", "-2")
    shifted = q.shifted(t, ctx50)
    for _ in range(5):
        x = ctx50.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(shifted.eval(x, ctx50) - q.eval(x - t, ctx50)) <= ctx50.pow10(-40) * max(
            1, abs(q.eval(x - t, ctx50))
        )
    # shifting back returns the original coefficients
    for got, want in zip(shifted.shifted(-t, ctx50).coeffs(), q.coeffs()):
        assert abs(got - want) <= ctx50.pow10(-40) * max(1, abs(want))


def test_m_zero_case_reduces_and_checks_out(ctx50):
    q = MonicQuintic.make(ctx50, 0, 1340, "12.3491", "-239.182", "339.21817")
    red = reduce_to_bring(q, ctx50)
    assert max(red.params.vanish_residuals) <= ctx50.pow10(-25)


def test_one_det5_per_successful_attempt(monkeypatch, ctx50, ctx200, rng):
    calls = []
    original = tschirnhaus.det5

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tschirnhaus, "det5", counted)
    cases = [(MonicQuintic.make(ctx200, *GOLDEN_COEFFS), ctx200)]
    cases += [(random_quintic(rng, ctx50), ctx50) for _ in range(5)]
    for q, ctx in cases:
        calls.clear()
        red = reduce_to_bring(q, ctx)
        assert red.params is not None
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# sampled reference: the determinant sampled at integer nodes and
# interpolated with degree guards, independent of the trace forms
# ---------------------------------------------------------------------------


def _scale(polys):
    return max([1] + [max_coeff_mag(p) for p in polys])


def _fit(values, degree, ref, ctx):
    """Guarded fit over nodes 0, 1, ...; below 10^(-digits/2) of ``ref`` counts as zero."""
    scale = max(ctx.pow10(-(ctx.digits // 2)) * ref, *(abs(v) for v in values))
    return fit_coeffs(list(enumerate(values)), degree, ctx, scale=scale)


def _sampled_poly(q, alpha, eta, xi, d, ctx):
    """Transformed poly at b = alpha*d + xi, c = d + eta, a fitted to kill y^4."""
    b = alpha * d + xi
    c = d + eta
    polys = [transformed_poly(q, k, b, c, d, ctx) for k in range(3)]
    c0, c1 = _fit([p.coeff(4) for p in polys], 1, _scale(polys), ctx)
    return transformed_poly(q, -c0 / c1, b, c, d, ctx)


def _sampled_in_d(q, alpha, eta, xi, slot, degree, ctx):
    """Coefficients in d of the transformed poly's y^slot coefficient, and the polys sampled."""
    polys = [_sampled_poly(q, alpha, eta, xi, ctx.mpc(k), ctx) for k in range(degree + 2)]
    return _fit([p.coeff(slot) for p in polys], degree, _scale(polys), ctx), polys


def _sampled_params(q, ctx):
    """(alpha, eta, xi, d) from sampled polynomials, roots picked as the pipeline picks them."""
    zero = ctx.mpc(0)
    ref = ctx.mpf(1)

    def in_d(alpha, eta, xi, slot, degree):
        nonlocal ref
        coeffs, polys = _sampled_in_d(q, alpha, eta, xi, slot, degree, ctx)
        ref = max(ref, _scale(polys))
        return coeffs

    d2 = [in_d(ctx.mpc(k), zero, zero, 3, 2)[2] for k in range(4)]
    alpha = _form_root(_fit(d2, 2, ref, ctx), [ref] * 3, ctx, -1, 0, "alpha")

    u0, u_eta, u_xi, u11 = (
        in_d(alpha, ctx.mpc(eta), ctx.mpc(xi), 3, 2)[1] for eta, xi in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    u_eta, u_xi = u_eta - u0, u_xi - u0
    assert abs(u11 - (u0 + u_eta + u_xi)) <= ctx.pow10(-(ctx.digits // 2)) * ref
    if abs(u_eta) > ctx.pow10(-(ctx.digits // 2)) * ref:
        def pair(t):
            return -(u0 + u_xi * t) / u_eta, t
    else:
        def pair(t):
            return t, -(u0 + u_eta * t) / u_xi

    polys = [_sampled_poly(q, alpha, *pair(ctx.mpc(k)), zero, ctx) for k in range(4)]
    ref = max(ref, _scale(polys))
    s = _fit([p.coeff(3) for p in polys], 2, ref, ctx)
    eta, xi = pair(_form_root(s, [ref] * 3, ctx, _XI_BRANCH, 0, "xi"))

    t = in_d(alpha, eta, xi, 2, 3)
    d = _form_root(t, [ref] * 4, ctx, -1, _D_INDEX, "d")
    return alpha, eta, xi, d


def test_forms_match_sampled_reference(ctx100):
    ctx = ctx100
    rng = random.Random(2718)
    cases = [random_quintic(rng, ctx) for _ in range(10)]
    cases.append(MonicQuintic.make(ctx, 0, 1340, "12.3491", "-239.182", "339.21817"))  # m = 0
    cases.append(MonicQuintic.make(ctx, 0, 0, 3, -2, 7))  # m = n = 0
    cases.append(MonicQuintic.make(ctx, 5, 10, 3, -2, 7))  # 2 m^2 = 5 n
    tol = ctx.pow10(-80)
    for q in cases:
        red = reduce_to_bring(q, ctx)
        shifted = q if red.shift == 0 else q.shifted(red.shift, ctx)
        p = red.params
        for got, want in zip((p.alpha, p.eta, p.xi, p.d), _sampled_params(shifted, ctx)):
            assert abs(got - want) <= tol * max(1, abs(want))


def test_huge_roots_typed_failure_or_correct():
    # roots 1e30*k + 3e29 i: the sampled reduction that preceded the trace
    # forms raised an untyped ZeroDivisionError here, fitting a
    ctx = PrecisionCtx(digits=50)
    roots = [ctx.mpc(k * 10**30, 3 * 10**29) for k in range(1, 6)]
    coeffs = poly_from_roots(roots, ctx).coeffs
    q = MonicQuintic(coeffs[4], coeffs[3], coeffs[2], coeffs[1], coeffs[0])
    try:
        report = solve_quintic(q, ctx)
    except QuinticError:
        return
    assert match_rootsets(report.roots, roots).max_distance <= ctx.pow10(-25) * 10**30


def _cluster_triple(ctx):
    # three roots 1e-8 apart: the vanishing checks fail below 200 digits
    c = ctx.mpc("0.5", "0.25")
    gap = ctx.mpf("1e-8")
    roots = [c, c + gap, c + gap * 1j, ctx.mpc("-1.3", "0.7"), ctx.mpc("2.1", "-0.4")]
    coeffs = poly_from_roots(roots, ctx).coeffs
    return MonicQuintic(coeffs[4], coeffs[3], coeffs[2], coeffs[1], coeffs[0]), roots


def test_reduction_stays_at_given_precision(ctx100):
    q, _ = _cluster_triple(ctx100)
    with pytest.raises(PrecisionExhausted):
        reduce_to_bring(q, ctx100)


def test_solve_owns_precision_ladder(ctx50):
    q, roots = _cluster_triple(ctx50)
    report = solve_quintic(q, ctx50)
    assert report.precision_used == 200
    assert match_rootsets(report.roots, roots).max_distance <= ctx50.pow10(-25)


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        (
            ("0.95999999-0.47i", "-2.3857999901-2.5091999799i", "-24.158555964493+10.046173970651i",
             "11.35121509714945-1.83195069791197i", "101.955816585761989+76.2643032799376945i"),
            ("-1.95-1.54i", "-1.94999999-1.54i", "2.68-0.65i", "1.85+1.3i", "-1.59+2.9i"),
        ),
        (
            ("3.37999999-1.84i", "-0.1890000518-18.2577999997i", "-33.529806091893-37.81000391064i",
             "-86.31428146185094+16.59167667262171i", "-57.4330833902341724+130.3285957631521136i"),
            ("1.8+1.81i", "1.80000001+1.81i", "-2.62-0.85i", "-2.52-2.33i", "-1.84+1.4i"),
        ),
    ],
)
def test_cluster_pair_with_tiny_a_and_b(ctx50, coeffs, roots):
    # root pairs 1e-8 apart (degenerate50 draws) whose reduction at 50
    # digits has |A| ~ 1e-25 and |B| < 1e-30.  B passes the bring_B test,
    # whose floor is absolute, although |s| is 0.4 and 1.6.  y = 0 then
    # leaves the selection ambiguous and the solve escalates to 100 digits.
    # Solved at 50 digits through the series instead, the pairs pass every
    # residual check with only 21-23 correct digits.
    report = solve_quintic(MonicQuintic.make(ctx50, *coeffs), ctx50)
    want = [parse_complex(r, ctx50) for r in roots]
    assert match_rootsets(report.roots, want).max_distance <= ctx50.pow10(-25)
