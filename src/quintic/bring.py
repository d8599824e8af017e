"""Principal root of the Bring-Jerrard equation z^5 - z - s = 0.

Inside the hypergeometric disk the root is the 4F3 series
z = -s * 4F3(1/5,2/5,3/5,4/5; 1/2,3/4,5/4; 3125/256 * s^4); outside it the
same function element is continued analytically along a path from 0 to s
using the implicit first-order flow dz/ds = 1/(5 z^4 - 1) with high-order
Taylor steps.  The returned root is always the continuation of the branch
z ~ -s near s = 0, and is always Newton-polished at full precision.

Branch points sit where 3125 * s^4 = 256 (|s| = 4 * 5^(-5/4) ~ 0.535):
paths detour around them, endpoints very close to one are reached through
the local double-cover coordinate tau = sqrt(s - s*), and far targets are
reached through the compactified chart eps = s^(-4/5), where the other four
roots stay uniformly separated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NearBranchPoint,
    SeriesDivergence,
    SeriesOutOfRange,
    StepLimitExceeded,
)
from .mpfield import PrecisionCtx, shared_ctx

__all__ = ["BringSolution", "hyper4f3", "bring_root_continuation", "solve_bring"]

SERIES = "series"
ODE_CONTINUATION = "ode_continuation"
PURE_RADICAL = "pure_radical"

# |s| of the four branch points: 3125 s^4 = 256.
_BP_RADIUS = float((256.0 / 3125.0) ** 0.25)
_BP_ANGLES = (1.0, 1j, -1.0, -1j)

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
    """4F3 with upper parameters {k/5} and lower {1/2, 3/4, 5/4} at x, |x| <= 0.9."""
    mp = ctx.mp
    x = ctx.convert(x)
    if abs(x) > mp.mpf("0.9"):
        raise SeriesOutOfRange(f"|x| = {mp.nstr(abs(x), 5)} > 0.9")
    one = mp.mpf(1)
    up = (one / 5, mp.mpf(2) / 5, mp.mpf(3) / 5, mp.mpf(4) / 5)
    low = (one / 2, mp.mpf(3) / 4, mp.mpf(5) / 4)
    total = mp.mpc(1)
    term = mp.mpc(1)
    tiny_streak = 0
    cutoff = ctx.pow10(-ctx.digits - 10)
    budget = _SERIES_TERMS_PER_DIGIT * ctx.digits
    for k in range(budget):
        ratio = (up[0] + k) * (up[1] + k) * (up[2] + k) * (up[3] + k)
        ratio /= (low[0] + k) * (low[1] + k) * (low[2] + k) * (k + 1)
        term = term * ratio * x
        total += term
        if abs(term) < cutoff * abs(total):
            tiny_streak += 1
            if tiny_streak >= 3:
                return total
        else:
            tiny_streak = 0
    raise SeriesDivergence(f"no convergence after {budget} terms")


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
# Taylor steppers.  The march runs on a reduced-precision context; the final
# Newton polish restores full precision and owns the residual contract.
# ---------------------------------------------------------------------------


def _newton(z, s, ctx, floor_exp, max_iter=80):
    scale = max(ctx.mpf(1), abs(s))
    best = z
    best_res = abs(best**5 - best - s)
    target = ctx.pow10(floor_exp) * scale
    for _ in range(max_iter):
        f = best**5 - best - s
        if abs(f) <= target:
            break
        df = 5 * best**4 - 1
        if df == 0:
            break
        cand = best - f / df
        res = abs(cand**5 - cand - s)
        if res >= best_res:
            break
        best, best_res = cand, res
    return best


class _Stepper:
    """Order-by-order Taylor recurrences for the three local charts.

    Marching steps only need to land inside the Newton basin of the root
    they track (separations along a planned path stay above ~0.1), so they
    run to a loose tolerance and let the per-step Newton anchor restore full
    working accuracy.  The tau-chart hop has no anchor and must resolve
    roots split by as little as sqrt of the branch-point distance, so it
    keeps the full series tolerance.
    """

    def __init__(self, octx: PrecisionCtx):
        self.ctx = octx
        self.tol = octx.pow10(-12)
        self.hop_tol = octx.pow10(-(octx.digits + 5))
        self.max_terms = 6 * octx.digits
        mp = octx.mp
        radius = mp.root(mp.mpf(256) / 3125, 4)
        self.bps = [radius * octx.mpc(w) for w in _BP_ANGLES]

    def _run(self, c, d_series, rhs_of, tol):
        """Shared recurrence: y * D = rhs, c' = y, D = 5*z^4 + (chart term)."""
        if d_series[0] == 0:
            return None
        inv_d0 = 1 / d_series[0]
        z2 = [c[0] * c[0]]
        z4 = [z2[0] * z2[0]]
        y = []
        extend_d = self._extend_d
        for k in range(self.max_terms):
            acc = rhs_of(k, c, y)
            for j in range(k):
                acc -= y[j] * d_series[k - j]
            yk = acc * inv_d0
            y.append(yk)
            c.append(yk / (k + 1))
            if (
                k >= 3
                and abs(c[-1]) < tol
                and abs(c[-2]) < tol
                and abs(c[-3]) < tol
            ):
                acc_sum = c[-1]
                for v in reversed(c[:-1]):
                    acc_sum = acc_sum + v
                return acc_sum
            idx = k + 1
            z2.append(sum(c[i] * c[idx - i] for i in range(idx + 1)))
            z4.append(sum(z2[i] * z2[idx - i] for i in range(idx + 1)))
            d_series.append(5 * z4[idx] + extend_d(idx))
        return None

    def step_z(self, z0, h):
        """z' * (5 z^4 - 1) = h along sigma = sigma0 + h*t."""
        self._extend_d = lambda idx: 0
        d0 = 5 * z0**4 - 1
        zero = self.ctx.mpc(0)
        return self._run([z0], [d0], lambda k, c, y: h if k == 0 else zero, self.tol)

    def step_v(self, v0, eps0, h):
        """v' * (5 v^4 - eps) = h * v along eps = eps0 + h*t."""
        self._extend_d = lambda idx: -h if idx == 1 else 0
        d0 = 5 * v0**4 - eps0
        return self._run([v0], [d0], lambda k, c, y: h * c[k], self.tol)

    def step_tau(self, z0, tau0, h):
        """z' * (5 z^4 - 1) = 2h(tau0 + h*t) along sigma = bp + tau^2."""
        self._extend_d = lambda idx: 0
        d0 = 5 * z0**4 - 1
        zero = self.ctx.mpc(0)

        def rhs(k, c, y):
            if k == 0:
                return 2 * h * tau0
            if k == 1:
                return 2 * h * h
            return zero

        return self._run([z0], [d0], rhs, self.hop_tol)

    def march(self, z, a, b, mode, budget_state, anchor=None):
        """Adaptive straight-line march a -> b; ``anchor`` re-Newtons each step.

        mode "z": autonomous sigma chart (step size follows the distance to
        the branch points); mode "v": compactified far-field chart (uniform
        steps are safe, singularities stay 0.8 away).
        """
        ctx = self.ctx
        pos = a
        while True:
            remaining = b - pos
            dist = abs(remaining)
            if dist == 0:
                return z
            if mode == "z":
                rho = min(abs(pos - bp) for bp in self.bps)
                h_mag = min(dist, max(ctx.mpf("0.15") * rho, ctx.mpf("1e-8")))
            else:
                h_mag = min(dist, ctx.mpf("0.15"))
            direction = remaining / dist
            exact = h_mag == dist
            while True:
                if budget_state[0] <= 0:
                    raise StepLimitExceeded("continuation exceeded its Taylor step budget")
                budget_state[0] -= 1
                znew = (
                    self.step_z(z, direction * h_mag)
                    if mode == "z"
                    else self.step_v(z, pos, direction * h_mag)
                )
                if znew is not None:
                    break
                h_mag = h_mag / 2
                exact = False
                if h_mag < ctx.mpf("1e-12"):
                    raise StepLimitExceeded("Taylor step size underflowed")
            pos = b if exact else pos + direction * h_mag
            z = anchor(znew, pos) if anchor is not None else znew


def bring_root_continuation(s, ctx: PrecisionCtx):
    """Analytic continuation of the z(0) = 0 branch from 0 to s.

    Returns (z, steps).  Raises NearBranchPoint when s is within
    10^(-digits/4) of a parameter where the Bring form has a double root.
    """
    mp = ctx.mp
    s = ctx.convert(s)
    radius_full = mp.root(mp.mpf(256) / 3125, 4)
    bps_full = [radius_full * ctx.mpc(w) for w in _BP_ANGLES]
    near = min(range(4), key=lambda i: abs(s - bps_full[i]))
    if abs(s - bps_full[near]) < ctx.pow10(-(ctx.digits // 4)):
        raise NearBranchPoint(f"s within 10^-{ctx.digits // 4} of a double-root parameter")

    octx = shared_ctx(max(40, ctx.digits // 4 + 20), seed=ctx.seed)
    st = _Stepper(octx)
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

    budget = [800 + 80 * int(float(mp.log(2 + abs_s)))]
    spent = budget[0]
    z = octx.mpc(0)

    def anchor(znew, pos):
        return _newton(znew, pos, octx, -(octx.digits - 5), max_iter=4)

    waypoints = _plan_waypoints(0.0, main_target)
    for a, b in zip(waypoints, waypoints[1:]):
        z = st.march(z, octx.mpc(a.real, a.imag), octx.mpc(b.real, b.imag), "z", budget, anchor)

    if far:
        theta = mp.atan2(so.imag, so.real)
        phase5 = octx.mp.exp(octx.mpc(0, theta) / 5)
        anchor_abs = octx.mpf(_FAR_ANCHOR)
        v = z / (octx.mp.root(anchor_abs, 5) * phase5)
        phase_eps = octx.mp.exp(octx.mpc(0, -4 * theta / 5))
        eps_from = octx.mp.root(anchor_abs, 5) ** (-4) * phase_eps
        eps_to = octx.mp.root(abs_s, 5) ** (-4) * phase_eps

        def anchor_v(vnew, pos):
            best = vnew
            best_res = abs(best**5 - pos * best - 1)
            for _ in range(8):
                dv = 5 * best**4 - pos
                if dv == 0:
                    break
                cand = best - (best**5 - pos * best - 1) / dv
                res = abs(cand**5 - pos * cand - 1)
                if res >= best_res:
                    break
                best, best_res = cand, res
            return best

        v = st.march(v, eps_from, eps_to, "v", budget, anchor_v)
        z = _newton(v * octx.mp.root(abs_s, 5) * phase5, so, octx, -(octx.digits - 5), max_iter=8)
    elif endpoint_hop:
        bpo = octx.convert(bps_full[near])
        tau1 = octx.mp.sqrt(octx.mpc(main_target.real, main_target.imag) - bpo)
        tau2 = octx.mp.sqrt(so - bpo)
        if abs(tau2 - tau1) > abs(-tau2 - tau1):
            tau2 = -tau2
        h = tau2 - tau1
        znew = st.step_tau(z, tau1, h)
        if znew is None:
            mid = st.step_tau(z, tau1, h / 2)
            znew = st.step_tau(mid, tau1 + h / 2, h / 2) if mid is not None else None
            if znew is None:
                raise StepLimitExceeded("tau-chart hop failed to converge")
        z = znew
        budget[0] -= 1

    z_full = _newton(ctx.convert(z), s, ctx, -(ctx.working_dps - 5))
    return z_full, spent - budget[0]


def solve_bring(s, ctx: PrecisionCtx, strategy: str = "auto") -> BringSolution:
    """Principal Bring root with automatic series/continuation selection.

    strategy "auto" uses the series for |3125/256 s^4| <= 0.8 and analytic
    continuation otherwise; "series"/"ode" force one path.  The result is
    always Newton-polished and carries its measured residual.
    """
    mp = ctx.mp
    s = ctx.convert(s)
    x = mp.mpf(3125) / 256 * s**4
    use_series = strategy == "series" or (strategy == "auto" and abs(x) <= mp.mpf("0.8"))
    if use_series:
        total = hyper4f3(x, ctx)
        z = _newton(-s * total, s, ctx, -(ctx.working_dps - 5))
        picked = SERIES
        count = 0
    else:
        z, count = bring_root_continuation(s, ctx)
        picked = ODE_CONTINUATION
    residual = abs(z**5 - z - s)
    return BringSolution(z=z, strategy=picked, residual=residual, terms_or_steps=count)
