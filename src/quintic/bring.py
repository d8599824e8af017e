"""Principal root of the Bring-Jerrard equation z^5 - z - s = 0.

Inside the disk |3125/256 * s^4| <= 0.8 the root is the 4F3 series
z = -s * 4F3(1/5,2/5,3/5,4/5; 1/2,3/4,5/4; 3125/256 * s^4), summed by
mpmath's fixed-point hypergeometric kernel.  Outside it the same function
element is continued analytically, from the series' value where the path
from 0 leaves the disk.  Every chart follows a root of one equation along a
straight step t in [0, 1], by high-order Taylor series of the implicit flow:

    z^5 - a(t) z - b(t) = 0,    (5 z^4 - a) z' = a' z + b'.

- sigma chart, a = 1 and b = sigma0 + h t: the march from the disk's edge
  (from 0 on a path that stays inside) towards s, with detours around the
  branch points 3125 s^4 = 256 (|s| ~ 0.535);
- far-field chart, a = eps0 + h t and b = 1: v = z * s^(-1/5) solves
  v^5 - eps v - 1 = 0 in eps = s^(-4/5), where the other four roots stay
  uniformly separated; for |s| > 1.6 it carries on from |s| = 1.3;
- tau hop, a = 1 and b = s* + (tau0 + h t)^2: one step in the double-cover
  coordinate tau = sqrt(s - s*) onto an endpoint within 0.05 of a branch
  point s*, to a tolerance that lands it in the Newton basin of its root.

Every continuation step, the hop included, lands only near its root; the
returned root is always the continuation of the branch z ~ -s near
s = 0, and is always Newton-polished at full precision.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NearBranchPoint, SeriesDivergence, SeriesOutOfRange, StepLimitExceeded
from .mpfield import PrecisionCtx, shared_ctx

__all__ = ["STRATEGIES", "BringSolution", "hyper4f3", "bring_root_continuation", "solve_bring"]

SERIES = "series"
ODE_CONTINUATION = "ode_continuation"
PURE_RADICAL = "pure_radical"
STRATEGIES = ("auto", "series", "ode")  # what solve_bring accepts

# |s| of the four branch points: 3125 s^4 = 256.
_BP_RADIUS = float((256.0 / 3125.0) ** 0.25)
_BP_ANGLES = (1.0, 1j, -1.0, -1j)
_SERIES_X = "0.8"  # |3125 s^4 / 256| up to which auto sums the 4F3
_SERIES_RADIUS = float(_SERIES_X) ** 0.25 * _BP_RADIUS  # where the march leaves the series

_DETOUR_TRIGGER = 0.045  # path-to-branch-point distance that forces a detour
_DETOUR_RADIUS = 0.1
_RING_RADIUS = 0.05  # endpoints closer than this arrive via the tau chart
_FAR_FIELD = 1.6
_FAR_ANCHOR = 1.3

# hyper4f3 gives up after this many terms per decimal digit
_SERIES_TERMS_PER_DIGIT = 100


@dataclass(frozen=True)
class BringSolution:
    z: object
    strategy: str
    residual: object
    terms_or_steps: int


def hyper4f3(x, ctx: PrecisionCtx):
    """4F3 with upper parameters {k/5} and lower {1/2, 3/4, 5/4} at x, |x| <= 0.9.

    mpmath's fixed-point hypergeometric kernel sums the series with the
    parameters as exact rationals and adds guard bits until the sum is good
    to the working precision.  Unlike ``mp.hyper`` it never falls back to
    extrapolation: past the term budget it raises SeriesDivergence.
    """
    mp = ctx.mp
    x = ctx.convert(x)
    if abs(x) > mp.mpf("0.9"):
        raise SeriesOutOfRange(f"|x| = {mp.nstr(abs(x), 5)} > 0.9")
    params = [mp.mpq(k, 5) for k in (1, 2, 3, 4)] + [mp.mpq(1, 2), mp.mpq(3, 4), mp.mpq(5, 4)]
    budget = _SERIES_TERMS_PER_DIGIT * ctx.digits
    try:
        return mp.mpc(mp.hypsum(4, 3, ("Q",) * 7, params, x, maxterms=budget))
    except mp.NoConvergence:
        raise SeriesDivergence(f"no convergence after {budget} terms") from None


# ---------------------------------------------------------------------------
# Path planning (float geometry: decisions only, never values).
# ---------------------------------------------------------------------------


def _seg_closest(a: complex, b: complex, p: complex):
    """(parameter in [0,1], distance) of the closest point of segment ab to p."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return 0.0, abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return t, abs(a + t * ab - p)


def _disk_exit(a: complex, b: complex) -> complex:
    """Where segment ab, from inside the series disk to outside it, crosses its edge."""
    d = b - a
    half_b, dd = (a * d.conjugate()).real, abs(d) ** 2
    return a + d * ((half_b**2 + dd * (_SERIES_RADIUS**2 - abs(a) ** 2)) ** 0.5 - half_b) / dd


def _plan_waypoints(start: complex, end: complex):
    """Insert 3-point detours around branch points the segment passes too close to."""
    if start == end:
        return [start, end]
    chord = end - start
    c_hat = chord / abs(chord)
    detours = []
    for w in _BP_ANGLES:
        bp = _BP_RADIUS * complex(w)
        t, dist = _seg_closest(start, end, bp)
        if dist < _DETOUR_TRIGGER and 0.0 < t < 1.0:
            foot = start + t * chord
            offset = bp - foot
            if abs(offset) > 1e-12:
                away = -offset / abs(offset)
            else:
                away = c_hat * 1j  # tie: bulge to the left of travel
            detours.append(
                (t, [bp - _DETOUR_RADIUS * c_hat, bp + _DETOUR_RADIUS * away, bp + _DETOUR_RADIUS * c_hat])
            )
    detours.sort(key=lambda item: item[0])
    points = [start]
    for _, triple in detours:
        points.extend(triple)
    points.append(end)
    return points


# ---------------------------------------------------------------------------
# Charts of z^5 - a(t) z - b(t) = 0.  The march runs on a reduced-precision
# context; the final polish restores full precision and owns the residual
# contract.
# ---------------------------------------------------------------------------


def _branch_points(ctx: PrecisionCtx):
    """The four s at which z^5 - z - s has a double root: 3125 s^4 = 256."""
    mp = ctx.mp
    radius = mp.root(mp.mpf(256) / 3125, 4)
    return [radius * ctx.mpc(w) for w in _BP_ANGLES]


def _newton(z, a, b, target, max_iter):
    """Newton on z^5 - a z - b until |residual| <= target or it stops falling."""
    f = z**5 - a * z - b
    res = abs(f)
    for _ in range(max_iter):
        if res <= target:
            break
        df = 5 * z**4 - a
        if df == 0:
            break
        cand = z - f / df
        f_cand = cand**5 - a * cand - b
        res_cand = abs(f_cand)
        if res_cand >= res:
            break
        z, f, res = cand, f_cand, res_cand
    return z


def _polish(z, s, ctx, digits, max_iter=80):
    """Newton on z^5 - z - s to 10^(5 - digits) relative to max(1, |s|)."""
    return _newton(z, 1, s, ctx.pow10(5 - digits) * max(ctx.mpf(1), abs(s)), max_iter)


def _taylor(z0, a, db, tol, max_terms):
    """z(1) from z(0) = z0 by the Taylor series of (5 z^4 - a) z' = a' z + b'.

    ``a = (a0, a1)`` is a(t) = a0 + a1*t, with a1 = 0 when a is constant;
    ``db`` holds the leading Taylor coefficients of b', the rest being zero.
    The series stops once three coefficients in a row fall below ``tol``.
    Returns None at a double root or when ``max_terms`` do not suffice.
    """
    a0, a1 = a
    d = [5 * z0**4 - a0]  # Taylor coefficients of 5 z^4 - a
    if d[0] == 0:
        return None
    inv_d0 = 1 / d[0]
    c = [z0]
    z2 = [z0 * z0]
    z4 = [z2[0] * z2[0]]
    y = []  # Taylor coefficients of z'
    for k in range(max_terms):
        acc = a1 * c[k] if a1 else 0
        if k < len(db):
            acc += db[k]
        for j in range(k):
            acc -= y[j] * d[k - j]
        yk = acc * inv_d0
        y.append(yk)
        c.append(yk / (k + 1))
        if k >= 3 and abs(c[-1]) < tol and abs(c[-2]) < tol and abs(c[-3]) < tol:
            return sum(reversed(c))
        idx = k + 1
        z2.append(sum(c[i] * c[idx - i] for i in range(idx + 1)))
        z4.append(sum(z2[i] * z2[idx - i] for i in range(idx + 1)))
        d.append(5 * z4[idx] - a1 if idx == 1 else 5 * z4[idx])
    return None


def _march(z, start, end, octx, budget, far=False):
    """Adaptive straight-line march of a chart parameter from start to end.

    The sigma chart (a = 1, b = sigma) scales its steps with the distance to
    the nearest branch point; the far-field chart (a = eps, b = 1) keeps its
    singularities 0.8 away, so uniform steps are safe.  A step only has to
    land inside the Newton basin of the root it tracks (separations along a
    planned path stay above ~0.1), so it runs to a loose tolerance and a few
    Newton iterations re-anchor it.  Every attempted step spends one unit of
    ``budget``; returns z at ``end`` and the budget left.
    """
    tol = octx.pow10(-12)
    max_terms = 6 * octx.digits
    bps = None if far else _branch_points(octx)
    pos = start
    while True:
        remaining = end - pos
        dist = abs(remaining)
        if dist == 0:
            return z, budget
        if far:
            h_mag = min(dist, octx.mpf("0.15"))
        else:
            rho = min(abs(pos - bp) for bp in bps)
            h_mag = min(dist, max(octx.mpf("0.15") * rho, octx.mpf("1e-8")))
        direction = remaining / dist
        exact = h_mag == dist
        while True:
            if budget <= 0:
                raise StepLimitExceeded("continuation exceeded its Taylor step budget")
            budget -= 1
            h = direction * h_mag
            znew = _taylor(z, (pos, h), (), tol, max_terms) if far else _taylor(z, (1, 0), (h,), tol, max_terms)
            if znew is not None:
                break
            h_mag = h_mag / 2
            exact = False
            if h_mag < octx.mpf("1e-12"):
                raise StepLimitExceeded("Taylor step size underflowed")
        pos = end if exact else pos + direction * h_mag
        z = _newton(znew, pos, 1, 0, 8) if far else _polish(znew, pos, octx, octx.digits, max_iter=4)


def bring_root_continuation(s, ctx: PrecisionCtx):
    """Analytic continuation of the z(0) = 0 branch from 0 to s.

    Returns (z, Taylor steps), starting from the 4F3 where the path leaves its
    disk.  Raises NearBranchPoint when s is within 10^(-digits/4) of a
    parameter where the Bring form has a double root.
    """
    mp = ctx.mp
    s = ctx.convert(s)
    bps_full = _branch_points(ctx)
    near = min(range(4), key=lambda i: abs(s - bps_full[i]))
    if abs(s - bps_full[near]) < ctx.pow10(-(ctx.digits // 4)):
        raise NearBranchPoint(f"s within 10^-{ctx.digits // 4} of a double-root parameter")

    octx = shared_ctx(max(40, ctx.digits // 4 + 20))
    so = octx.convert(s)
    abs_s = abs(so)

    far = abs_s > _FAR_FIELD
    endpoint_hop = (not far) and abs(s - bps_full[near]) < _RING_RADIUS

    unit_s = complex((so / abs_s).real, (so / abs_s).imag) if abs_s > 0 else 0j
    if far:
        main_target = _FAR_ANCHOR * unit_s
    elif endpoint_hop:
        bpf = _BP_RADIUS * complex(_BP_ANGLES[near])
        sf = complex(so.real, so.imag)
        u = sf - bpf
        main_target = bpf + _RING_RADIUS * (u / abs(u))
    else:
        main_target = complex(so.real, so.imag)

    budget = 800 + 80 * int(float(mp.log(2 + abs_s)))
    left = budget
    z = octx.mpc(0)
    waypoints = _plan_waypoints(0.0, main_target)
    out = next((i for i, w in enumerate(waypoints) if abs(w) > _SERIES_RADIUS), None)
    if out is not None:  # start from the series where the path leaves its disk
        edge = _disk_exit(waypoints[out - 1], waypoints[out])
        pe = octx.mpc(edge.real, edge.imag)
        z = _polish(-pe * hyper4f3(3125 * pe**4 / 256, octx), pe, octx, octx.digits)
        waypoints = [edge] + waypoints[out:]
    for a, b in zip(waypoints, waypoints[1:]):
        z, left = _march(z, octx.mpc(a.real, a.imag), octx.mpc(b.real, b.imag), octx, left)

    if far:
        # v = z * s^(-1/5) solves v^5 - eps v - 1 = 0 with eps = s^(-4/5)
        theta = mp.atan2(so.imag, so.real)
        phase5 = octx.mp.exp(octx.mpc(0, theta) / 5)
        anchor_abs = octx.mpf(_FAR_ANCHOR)
        v = z / (octx.mp.root(anchor_abs, 5) * phase5)
        phase_eps = octx.mp.exp(octx.mpc(0, -4 * theta / 5))
        eps_from = octx.mp.root(anchor_abs, 5) ** (-4) * phase_eps
        eps_to = octx.mp.root(abs_s, 5) ** (-4) * phase_eps
        v, left = _march(v, eps_from, eps_to, octx, left, far=True)
        z = _polish(v * octx.mp.root(abs_s, 5) * phase5, so, octx, octx.digits, max_iter=8)
    elif endpoint_hop:
        # one step in tau = sqrt(s - s*), where the root is analytic.  Like a
        # march step it only has to land in the Newton basin of its root;
        # the partner root is about 1.16 |tau2| away, so the tolerance
        # scales with |tau2|, and the final polish does the rest
        bpo = octx.convert(bps_full[near])
        tau1 = octx.mp.sqrt(octx.mpc(main_target.real, main_target.imag) - bpo)
        tau2 = octx.mp.sqrt(so - bpo)
        if abs(tau2 - tau1) > abs(-tau2 - tau1):
            tau2 = -tau2
        h = tau2 - tau1
        hop_tol = octx.pow10(-12) * min(1, abs(tau2))
        z = _taylor(z, (1, 0), (2 * h * tau1, 2 * h * h), hop_tol, 6 * octx.digits)
        if z is None:
            raise StepLimitExceeded("tau-chart hop failed to converge")
        left -= 1

    z_full = _polish(ctx.convert(z), s, ctx, ctx.working_dps)
    return z_full, budget - left


def solve_bring(s, ctx: PrecisionCtx, strategy: str = "auto") -> BringSolution:
    """Principal Bring root with automatic series/continuation selection.

    strategy "auto" uses the series for |3125/256 s^4| <= 0.8, else the
    continuation, which starts from it on that circle; "series"/"ode" force
    one path.  The result is always Newton-polished and carries its residual.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    mp = ctx.mp
    s = ctx.convert(s)
    x = mp.mpf(3125) / 256 * s**4
    use_series = strategy == "series" or (strategy == "auto" and abs(x) <= mp.mpf(_SERIES_X))
    if use_series:
        total = hyper4f3(x, ctx)
        z = _polish(-s * total, s, ctx, ctx.working_dps)
        picked = SERIES
        count = 0
    else:
        z, count = bring_root_continuation(s, ctx)
        picked = ODE_CONTINUATION
    residual = abs(z**5 - z - s)
    return BringSolution(z=z, strategy=picked, residual=residual, terms_or_steps=count)
