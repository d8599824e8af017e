"""Independent verification oracle: Aberth-Ehrlich simultaneous root finding.

Shares nothing with the closed-form pipeline beyond the arithmetic substrate,
so agreement between the two is real evidence.

The iteration runs twice, as in MPSolve (Bini & Fiorentino, Numer.
Algorithms 23, 2000): first in hardware floats from points on a circle at a
fixed angular offset, then at full precision from the float estimates, with
the full-precision stopping rule alone deciding when the roots are done.
Inputs that floats cannot carry start the full-precision loop from the circle
itself.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations

from .errors import NoConvergence
from .mpfield import PrecisionCtx
from .polyring import Poly

__all__ = ["RootMatch", "aberth_solve", "match_rootsets"]

# The float phase stops once every correction is within a few units in the
# last place of its estimate; clustered roots stall above that, so a round
# cap ends it there.  Either way the full-precision loop finishes the job.
_FLOAT_TOL = 1e-15
_FLOAT_ROUNDS = 60

# Angular offset of the starting circle past a quarter step, in units of
# 2**-64 of the step 2*pi/degree between its points.
_CIRCLE_OFFSET = 0xE220A8397B1DCDAF


@dataclass(frozen=True)
class RootMatch:
    """Best pairing between two root multisets."""

    pairing: tuple
    max_distance: object


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _float_estimates(coeffs, starts):
    """Aberth-Ehrlich iteration in Python complex, or None where floats fail.

    Runs from ``starts`` until every correction is below _FLOAT_TOL relative
    to its estimate, or for _FLOAT_ROUNDS rounds.  Returns None when a
    coefficient or start is not a finite float, on a division by zero or an
    overflow, or when the estimates come out non-finite or not pairwise
    distinct (the full-precision update divides by their differences).
    """
    try:
        fc = [complex(c) for c in coeffs]
        zs = [complex(z) for z in starts]
        if not all(map(cmath.isfinite, fc + zs)):
            return None
        dc = [k * fc[k] for k in range(1, len(fc))]
        for _ in range(_FLOAT_ROUNDS):
            settled = True
            for i, zi in enumerate(zs):
                f = _horner(fc, zi)
                if f == 0:
                    continue
                newton = f / _horner(dc, zi)
                aberth = sum(1 / (zi - zj) for j, zj in enumerate(zs) if j != i)
                correction = newton / (1 - newton * aberth)
                zs[i] = zi - correction
                settled = settled and abs(correction) <= _FLOAT_TOL * abs(zi)
            if settled:
                break
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(map(cmath.isfinite, zs)) or len(set(zs)) < len(zs):
        return None
    return zs


def aberth_solve(poly: Poly, ctx: PrecisionCtx):
    """All roots of poly by simultaneous Aberth-Ehrlich iteration.

    Deterministic given (poly, ctx).  The circle of radius
    2 * max_k |c_{n-k} / c_n|^(1/k), Fujiwara's bound on the roots' moduli,
    at a fixed angular offset starts a float phase of the same iteration,
    which stops near double precision or after a fixed number of rounds.
    The full-precision loop then starts from the float estimates,
    or from the circle when a coefficient is not a finite float, the float
    phase overflows or divides by zero, or two estimates coincide.  Its
    stopping rule does not depend on where it started: a backward error
    |p(z)| / sum(|c_k| |z|^k) below 10**(-digits+20) (Bini, Numer.
    Algorithms 13, 1996), or a step below 10**(-digits-5).  Multiple roots
    converge linearly and land within roughly half the working precision of
    each other, which the residual stop accepts.
    """
    mp = ctx.mp
    deg = poly.degree
    if deg < 1:
        raise ValueError("aberth_solve needs degree >= 1")
    lead = poly.coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    coeffs = [ctx.convert(c) for c in poly.coeffs]
    dcoeffs = [k * coeffs[k] for k in range(1, deg + 1)]

    radius = 2 * max(mp.root(abs(coeffs[deg - k] / coeffs[deg]), k) for k in range(1, deg + 1))
    offset = mp.mpf(_CIRCLE_OFFSET) / 2**64
    pi2 = 2 * mp.pi
    zs = [radius * mp.exp(1j * pi2 * (k + offset + mp.mpf(1) / 4) / deg) for k in range(deg)]
    estimates = _float_estimates(coeffs, zs)
    if estimates is not None:
        zs = [mp.mpc(z) for z in estimates]

    abs_coeffs = [abs(c) for c in coeffs]
    res_tol = ctx.pow10(-ctx.digits + 20)
    step_tol = ctx.pow10(-ctx.digits - 5)
    max_iter = 200 * ctx.digits
    for _ in range(max_iter):
        moved = ctx.mpf(0)
        done = True
        for i in range(deg):
            zi = zs[i]
            f, df = _horner(coeffs, zi), _horner(dcoeffs, zi)
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
            if abs(f) > res_tol * _horner(abs_coeffs, abs(zi)):
                done = False
        if done or moved <= step_tol:
            break
    else:
        raise NoConvergence(f"Aberth iteration did not settle in {max_iter} rounds")
    return zs


def match_rootsets(xs, ys) -> RootMatch:
    """Exact minimum over all pairings of the largest pairwise distance.

    Distances are normalized by 1 + the largest root magnitude across both
    sets.  Brute force over the 120 permutations of one precomputed distance
    matrix: the minimum is genuine, and ties go to the first permutation in
    lexicographic order.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("root sets must have equal size")
    norm = 1 + max(max(abs(x) for x in xs), max(abs(y) for y in ys))
    dist = [[abs(x - y) for y in ys] for x in xs]
    best = None
    best_perm = None
    for perm in permutations(range(len(ys))):
        worst = max(row[j] for row, j in zip(dist, perm))
        if best is None or worst < best:
            best = worst
            best_perm = perm
    return RootMatch(pairing=best_perm, max_distance=best / norm)
