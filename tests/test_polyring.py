import random
from itertools import permutations

import pytest

from quintic.errors import NotARoot
from quintic.mpfield import PrecisionCtx
from quintic.polyring import Poly, det5

from polyref import (
    DegreeGuardFailure,
    deflate,
    eval_poly,
    fit_coeffs,
    max_coeff_mag,
    poly_add,
    poly_from_roots,
    poly_mul,
    poly_sub,
)


def _random_matrix(rng, ctx):
    return [[ctx.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(5)] for _ in range(5)]


def det5_permutation_oracle(matrix, ctx):
    """det(y*I + M) by the brute-force 120-permutation expansion, independent of det5."""
    one = ctx.mpc(1)
    entries = [[Poly([v, one] if i == j else [v]) for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    total = Poly(())
    for perm in permutations(range(5)):
        sign = 1
        p = list(perm)
        for i in range(5):
            for j in range(i + 1, 5):
                if p[i] > p[j]:
                    sign = -sign
        term = Poly([ctx.mpc(sign)])
        for r in range(5):
            term = poly_mul(term, entries[r][perm[r]])
        total = poly_add(total, term)
    return total


def test_poly_trim_and_degree(ctx50):
    p = Poly([ctx50.mpc(1), ctx50.mpc(0), ctx50.mpc(0)])
    assert p.degree == 0
    assert Poly(()).degree == -1


def test_eval_trivial(ctx50):
    p = Poly([ctx50.mpc(-1), 0, 0, 0, 0, ctx50.mpc(1)])  # x^5 - 1
    assert eval_poly(p, ctx50.mpc(1), ctx50) == 0
    q = Poly([0, ctx50.mpc(-1), 0, 0, 0, ctx50.mpc(1)])  # x^5 - x
    assert abs(eval_poly(q, ctx50.mpc(0, 1), ctx50)) < ctx50.pow10(-48)


def test_det5_identity_and_diag_y(ctx50):
    ident = [[ctx50.mpc(1 if i == j else 0) for j in range(5)] for i in range(5)]
    d = det5(ident, ctx50)  # (y + 1)^5
    assert d.coeffs == tuple(ctx50.mpc(c) for c in (1, 5, 10, 10, 5, 1))

    d = det5([[ctx50.mpc(0)] * 5 for _ in range(5)], ctx50)  # y^5
    assert d.degree == 5 and d.coeff(5) == 1
    assert all(d.coeff(k) == 0 for k in range(5))


def test_det5_rounds_in_context_arithmetic(ctx50):
    """For a diagonal M, det(y*I + M) starts with M's diagonal product, rounded as the context rounds.

    The recursion multiplies up from the bottom row, so det5 must return
    d0 * (d1 * (d2 * (d3 * d4))) bit for bit; full-precision entries make
    every product inexact, so a different rounding mode shows.
    """
    mp = ctx50.mp
    diag = [mp.mpc(mp.sqrt(k + 2), mp.cbrt(k + 3)) for k in range(5)]
    m = [[diag[i] if i == j else ctx50.mpc(0) for j in range(5)] for i in range(5)]
    want = diag[4]
    for d in reversed(diag[:4]):
        want = d * want
    got = det5(m, ctx50)
    assert got.coeff(0) == want and got.coeff(5) == 1


def test_det5_matches_permutation_oracle(ctx50, rng):
    for _ in range(10):
        m = _random_matrix(rng, ctx50)
        fast = det5(m, ctx50)
        slow = det5_permutation_oracle(m, ctx50)
        scale = max(max_coeff_mag(slow), 1)
        diff = poly_sub(fast, slow)
        assert max_coeff_mag(diff) <= ctx50.pow10(-45) * scale


def test_det5_similarity_invariance(ctx50, rng):
    """det(y*I + D*M*D^-1) = det(y*I + M) for a diagonal D."""
    m = _random_matrix(rng, ctx50)
    diag = [ctx50.mpc(rng.uniform(0.5, 4), rng.uniform(-4, 4)) for _ in range(5)]
    similar = [[diag[i] * m[i][j] / diag[j] for j in range(5)] for i in range(5)]
    lhs = det5(similar, ctx50)
    rhs = det5(m, ctx50)
    assert max_coeff_mag(poly_sub(lhs, rhs)) <= ctx50.pow10(-44) * max(1, max_coeff_mag(rhs))


def test_fit_trivial_quadratic(ctx50):
    samples = [(k, 1 + k + k * k) for k in range(4)]
    coeffs = fit_coeffs(samples, 2, ctx50)
    for c, want in zip(coeffs, (1, 1, 1)):
        assert abs(c - want) < ctx50.pow10(-45)


def test_fit_constant_as_affine(ctx50):
    samples = [(0, 7), (1, 7), (2, 7)]
    coeffs = fit_coeffs(samples, 1, ctx50)
    assert abs(coeffs[0] - 7) < ctx50.pow10(-45)
    assert abs(coeffs[1]) < ctx50.pow10(-45)


def test_fit_guard_failure(ctx50):
    # sample a cubic but claim degree 2: the guard node must catch it
    samples = [(k, k**3) for k in range(4)]
    with pytest.raises(DegreeGuardFailure):
        fit_coeffs(samples, 2, ctx50)


def test_fit_roundtrip_random(ctx50, rng):
    for _ in range(20):
        d = rng.randrange(0, 5)
        coeffs = [ctx50.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(d + 1)]
        p = Poly(coeffs)
        samples = [(k, eval_poly(p, ctx50.mpc(k), ctx50)) for k in range(d + 2)]
        got = fit_coeffs(samples, d, ctx50)
        for have, want in zip(got, list(coeffs) + [0] * (d + 1 - len(coeffs))):
            assert abs(have - want) < ctx50.pow10(-40)


def test_deflate_examples(ctx50):
    p = Poly([ctx50.mpc(-1), 0, 0, 0, 0, ctx50.mpc(1)])  # x^5 - 1
    q = deflate(p, ctx50.mpc(1), ctx50)
    assert all(abs(q.coeff(k) - 1) < ctx50.pow10(-45) for k in range(5))

    p2 = Poly([ctx50.mpc(-1), 0, ctx50.mpc(1)])  # x^2 - 1
    q2 = deflate(p2, ctx50.mpc(-1), ctx50)
    assert abs(q2.coeff(0) + 1) < ctx50.pow10(-45) and abs(q2.coeff(1) - 1) < ctx50.pow10(-45)


def test_deflate_rejects_non_root(ctx50):
    p = Poly([ctx50.mpc(-1), 0, 0, 0, 0, ctx50.mpc(1)])
    with pytest.raises(NotARoot):
        deflate(p, ctx50.mpc(2), ctx50)


def test_deflate_multiply_back(ctx50, rng):
    for _ in range(10):
        roots = [ctx50.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        p = poly_from_roots(roots, ctx50)
        q = deflate(p, roots[0], ctx50)
        back = poly_mul(q, Poly([-roots[0], ctx50.mpc(1)]))
        assert max_coeff_mag(poly_sub(back, p)) <= ctx50.pow10(-25) * max(1, max_coeff_mag(p))


def test_eval_golden_quintic_residual_at_root(ctx200):
    from golden import GOLDEN_COEFFS, GOLDEN_ROOTS
    from quintic.mpfield import parse_complex

    m, n, p, q, r = (parse_complex(t, ctx200) for t in GOLDEN_COEFFS)
    quintic = Poly([r, q, p, n, m, ctx200.mpc(1)])
    r1 = parse_complex(GOLDEN_ROOTS[0], ctx200)
    assert abs(eval_poly(quintic, r1, ctx200)) <= ctx200.pow10(-150)
