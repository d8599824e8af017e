"""The inclusion-radius certificate, and inputs it must not let through wrong.

Every solve either returns roots correct to half its digits relative to
their own magnitudes, or raises a typed QuinticError.  Clustered roots have
small residuals although half their digits are wrong, which only the radii
see, and root sets far from unit scale test that every vanishing test is
weighed by its own terms rather than by a unit floor.
"""

import random
from itertools import permutations

import pytest

from quintic.closedform import inclusion_radii, solve_quintic
from quintic.errors import PrecisionExhausted, QuinticError
from quintic.mpfield import PrecisionCtx
from quintic.tschirnhaus import MonicQuintic

from polyref import poly_from_roots

CTX = PrecisionCtx(digits=50)
C = CTX.mpc


def _quintic(roots, ctx=CTX):
    c = poly_from_roots(roots, ctx).coeffs
    return MonicQuintic(c[4], c[3], c[2], c[1], c[0])


def _worst_relative_error(got, want):
    """Largest error relative to each root's own magnitude, under the best pairing."""
    return min(
        max(abs(got[perm[i]] - w) / abs(w) for i, w in enumerate(want)) for perm in permutations(range(5))
    )


def _correct_or_typed(roots, ctx=CTX):
    """'ok' for roots right to digits/2 relative, 'typed' for a QuinticError, else 'wrong'."""
    try:
        report = solve_quintic(_quintic(roots, ctx), ctx)
    except QuinticError:
        return "typed"
    return "ok" if _worst_relative_error(report.roots, roots) <= ctx.pow10(-(ctx.digits // 2)) else "wrong"


def test_radii_bound_the_true_errors():
    # Gaussian-integer roots: the coefficients are exact, so the disks must
    # hold the prescribed roots themselves
    roots = [C(1), C(-2), C(0, 3), C(-1, -1), C(2, 2)]
    report = solve_quintic(_quintic(roots), CTX)
    assert len(report.radii) == 5
    for z, radius in zip(report.roots, report.radii):
        err = min(abs(z - w) for w in roots)
        assert err <= radius <= CTX.pow10(-40) * abs(z)


def test_radii_reject_a_perturbed_root():
    q = MonicQuintic.make(CTX, 0, 0, 0, -1, 0)  # x^5 - x
    roots = [C(0), C(1), C(-1), C(0, 1), C(0, -1)]
    residuals, radii = inclusion_radii(q, roots, CTX, CTX.digits)
    assert max(residuals) == 0 and max(radii) == 0
    roots[1] += CTX.pow10(-20)
    with pytest.raises(PrecisionExhausted, match="r2"):
        inclusion_radii(q, roots, CTX, CTX.digits)


def test_coincident_roots_are_not_certified():
    q = MonicQuintic.make(CTX, 0, 0, 0, 0, 0)  # x^5
    with pytest.raises(PrecisionExhausted):
        inclusion_radii(q, [C(0)] * 5, CTX, CTX.digits)


_PAIR = [C("-1.1", "0.2"), C("0.4", "-1.3"), C("2.1", "0.9")]


@pytest.mark.parametrize(
    "roots",
    [
        # a pair 1e-20 apart: residuals pass with 20 of 50 digits right
        [C("0.7", "0.3"), C("0.7", "0.3") + CTX.mpf("1e-20"), *_PAIR],
        # the benchmark's cluster_tight pair, 1e-16 apart
        [C("0.7", "0.3"), C("0.7", "0.3") + CTX.mpf("1e-16"), *_PAIR],
        # an exact triple root
        [C("0.5", "0.25")] * 3 + [C("-1.3", "0.7"), C("2.1", "-0.4")],
        # roots over 24 decades: no rung of the precision ladder reduces them today
        [C(CTX.mpf(10) ** k) for k in (-12, -6, 0, 6, 12)],
    ],
    ids=["pair_1e-20", "cluster_tight", "triple", "spread"],
)
def test_clusters_correct_or_typed(roots):
    assert _correct_or_typed(roots) != "wrong"


@pytest.mark.parametrize(
    "power",
    [
        6,  # Ferrari's monic resolvent, whose r0 is about 1e36, keeps its leading 1
        11,  # the xi quadratic keeps coefficients far below its largest
        30,  # the alpha quadratic, likewise
    ],
)
def test_large_root_scales_are_solved(power):
    roots = [C(w) * CTX.mpf(10) ** power for w in (1, -2 + 1j, 0.5 - 2j, 3 + 0.5j, -1.5 - 1.5j)]
    report = solve_quintic(_quintic(roots), CTX)
    assert _worst_relative_error(report.roots, roots) <= CTX.pow10(-25)


def test_no_silent_wrong_answer_scan():
    rng = random.Random(7)
    mp = CTX.mp

    def draw(bound):
        return C(*(mp.mpf(rng.randint(-100 * bound, 100 * bound)) / 100 for _ in range(2)))

    outcomes = []
    for i in range(20):
        # gaps 1e-4 .. 1e-20
        center = draw(2)
        gap = mp.mpf(10) ** -(4 + (16 * i) // 19)
        outcomes.append(_correct_or_typed([center, center + gap] + [draw(3) for _ in range(3)]))
    for _ in range(20):
        scale = mp.mpf(10) ** rng.randint(-12, 12)
        outcomes.append(_correct_or_typed([draw(3) * scale for _ in range(5)]))
    assert outcomes.count("wrong") == 0, outcomes
