"""Reduction of a monic quintic to Bring-Jerrard form y^5 + A*y + B.

The quartic substitution y = -(x^4 + d*x^3 + c*x^2 + b*x + a) maps the
quintic's roots x_i to the roots y_i of the transformed quintic, whose
y^4, y^3 and y^2 coefficients must vanish.  Those conditions are
Tr Y = Tr Y^2 = Tr Y^3 = 0 (Adamchik & Jeffrey, "Polynomial transformations
of Tschirnhaus, Bring and Jerrard", ACM SIGSAM Bull. 37(3), 2003): a linear,
a quadratic and a cubic form in (a, b, c, d) whose coefficients are the
power sums P_0..P_12 of the roots, taken from Newton's identities.  The
linear condition fixes a; writing b = alpha*d + xi and c = d + eta splits
the quadratic one into an alpha quadratic, an affine (eta, xi) line and a
xi quadratic, and the cubic one leaves a cubic in d.

The solved substitution is then evaluated once through the 5x5 determinant
det(y*I + M_T), M_T the scalar matrix of multiplication by T(x) = x^4 +
d*x^3 + c*x^2 + b*x + a modulo the quintic (Cox, Little & O'Shea, "Using
Algebraic Geometry", ch. 2).  It gives A, B and the residual y^4, y^3, y^2
coefficients that certify the reduction independently of the forms; the
tests check M_T against the paper's transcribed elimination matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateLeading, PrecisionExhausted, ShiftLadderExhausted
from .mpfield import PrecisionCtx, pow_rational, sqrt_principal
from .polyring import Poly, det5, negligible, root_scale

__all__ = [
    "MonicQuintic",
    "TschirnhausParams",
    "BringReduction",
    "multiplication_matrix",
    "transformed_poly",
    "TraceForms",
    "reduce_to_bring",
]

# Pre-shift ladder tried on degenerate eliminations, in order.
_SHIFT_LADDER = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]

# Branch choices pinned by the golden regression test: the alpha / xi
# quadratics take the root matching the reference worked example, and
# TraceForms.d takes this cardano_roots index.
_XI_BRANCH = -1
_D_INDEX = 0


@dataclass(frozen=True)
class MonicQuintic:
    """Coefficients of x^5 + m*x^4 + n*x^3 + p*x^2 + q*x + r."""

    m: object
    n: object
    p: object
    q: object
    r: object

    @staticmethod
    def make(ctx: PrecisionCtx, m, n, p, q, r) -> "MonicQuintic":
        return MonicQuintic(*(ctx.mpc(v) if isinstance(v, str) else ctx.convert(v) for v in (m, n, p, q, r)))

    def rebind(self, ctx: PrecisionCtx) -> "MonicQuintic":
        return MonicQuintic(*(ctx.convert(v) for v in self.coeffs()))

    def coeffs(self):
        return (self.m, self.n, self.p, self.q, self.r)

    def as_poly(self, ctx: PrecisionCtx) -> Poly:
        return Poly([self.r, self.q, self.p, self.n, self.m, ctx.mpc(1)])

    def eval(self, x, ctx: PrecisionCtx):
        x = ctx.convert(x)
        return ((((x + self.m) * x + self.n) * x + self.p) * x + self.q) * x + self.r

    def shifted(self, t, ctx: PrecisionCtx) -> "MonicQuintic":
        """Coefficients of Q(x - t); roots move to root + t."""
        t = ctx.convert(t)
        # Taylor shift: repeated synthetic division by x + t
        c = [ctx.convert(v) for v in (self.r, self.q, self.p, self.n, self.m)] + [ctx.mpc(1)]
        for i in range(5):
            for j in range(4, i - 1, -1):
                c[j] -= t * c[j + 1]
        return MonicQuintic(c[4], c[3], c[2], c[1], c[0])


@dataclass(frozen=True)
class TschirnhausParams:
    """Solved substitution parameters and the vanishing-check residuals."""

    a: object
    b: object
    c: object
    d: object
    alpha: object
    xi: object
    eta: object
    vanish_residuals: tuple


@dataclass(frozen=True)
class BringReduction:
    """Bring-Jerrard data: y^5 + A*y + B with s = -B/(-A)^(5/4).

    ``shift`` is subtracted from every root downstream when a pre-shift was
    needed; ``pure_radical`` marks reductions where the Bring step
    degenerates ("quintic": the input is a shifted pure fifth power;
    "bring_A": A ~ 0; "bring_B": B ~ 0).
    """

    A: object
    B: object
    s: object
    quartic_root_scale: object
    shift: object
    params: TschirnhausParams | None
    pure_radical: str | None
    ctx: PrecisionCtx


# ---------------------------------------------------------------------------
# Certificate: the characteristic polynomial of multiplication by T.
# ---------------------------------------------------------------------------


def multiplication_matrix(quintic: MonicQuintic, a, b, c, d, ctx: PrecisionCtx):
    """Rows of M_T: column k is T(x)*x^k modulo the quintic in the basis 1, x, .., x^4."""
    m, n, p, q, r = (ctx.convert(v) for v in quintic.coeffs())
    cols = [[ctx.convert(v) for v in (a, b, c, d)] + [ctx.mpc(1)]]
    for _ in range(4):
        # x * column, with x^5 = -(m*x^4 + n*x^3 + p*x^2 + q*x + r)
        c0, c1, c2, c3, top = cols[-1]
        cols.append([-r * top, c0 - q * top, c1 - p * top, c2 - n * top, c3 - m * top])
    return list(zip(*cols))


def transformed_poly(quintic: MonicQuintic, a, b, c, d, ctx: PrecisionCtx) -> Poly:
    """Monic quintic in y whose roots are -T(x_i), T = x^4 + d*x^3 + c*x^2 + b*x + a.

    By Stickelberger's theorem that is det(y*I + M_T), whose y^5 coefficient
    is exactly 1: only the diagonal carries y, each time with coefficient 1.
    """
    return det5(multiplication_matrix(quintic, a, b, c, d, ctx), ctx)


# ---------------------------------------------------------------------------
# Trace forms.
# ---------------------------------------------------------------------------


def _power_sums(quintic: MonicQuintic, ctx: PrecisionCtx, top: int):
    """Power sums P_0..P_top of the quintic's roots, by Newton's identities."""
    coeffs = quintic.coeffs()
    sums = [ctx.mpc(5)]
    for k in range(1, top + 1):
        acc = k * coeffs[k - 1] if k <= 5 else ctx.mpc(0)
        for j in range(1, min(k - 1, 5) + 1):
            acc += coeffs[j - 1] * sums[k - j]
        sums.append(-acc)
    return sums


# unit vectors: U(x) = x, x^2 and x^4
_E1 = (1, 0, 0, 0)
_E2 = (0, 1, 0, 0)
_E4 = (0, 0, 0, 1)


class TraceForms:
    """Trace forms of one quintic at one precision.

    A vector u = (u1, u2, u3, u4) stands for U(x) = u1*x + u2*x^2 + u3*x^3 +
    u4*x^4, so the substitution is T = V + a with v = (b, c, d, 1).  Choosing
    a = -Tr(V)/5 centres T, and the transformed polynomial then has y^3
    coefficient -g(v, v)/2 and y^2 coefficient h(v, v, v)/3, where g and h
    are the traces of products of centred polynomials.  Traces of products
    are power sums P_0..P_12 of the roots, which Newton's identities give.

    The parameters are solved in the order alpha, (eta, xi), d, a: with
    b = alpha*d + xi and c = d + eta, each step zeroes one part of the y^3
    or y^2 coefficient.
    """

    def __init__(self, quintic: MonicQuintic, ctx: PrecisionCtx):
        quintic = quintic.rebind(ctx)
        self.ctx = ctx
        self.sums = _power_sums(quintic, ctx, 12)
        self.rscale = root_scale(quintic.coeffs(), ctx)

    def trace(self, *vectors):
        """Tr(U_1(x) * ... * U_k(x)) summed over the quintic's roots."""
        prod = [1]  # product coefficients, lowest power first
        for u in vectors:
            out = [0] * (len(prod) + 4)
            for i, pv in enumerate(prod):
                for j, uv in enumerate(u):
                    out[i + j + 1] += pv * uv
            prod = out
        return sum(pv * s for pv, s in zip(prod, self.sums))

    def g(self, u, w):
        """Tr of the product of centred U and W."""
        return self.trace(u, w) - self.trace(u) * self.trace(w) / 5

    def h(self, u, w, z):
        """Tr of the product of centred U, W and Z."""
        tu, tw, tz = self.trace(u), self.trace(w), self.trace(z)
        spread = tu * self.trace(w, z) + tw * self.trace(u, z) + tz * self.trace(u, w)
        return self.trace(u, w, z) - spread / 5 + 2 * tu * tw * tz / 25

    def weight(self, u):
        """Magnitude Tr(|U|) would have if every root had the root scale.

        Products of these weights bound the size of the terms that a form
        coefficient sums, so they set the scale at which it counts as zero.
        """
        return sum(abs(v) * self.rscale ** (j + 1) for j, v in enumerate(u))

    def weights(self, u, w, degree):
        """Weight of each coefficient, in t, of a degree-``degree`` form at u + t*w."""
        wu, ww = self.weight(u), self.weight(w)
        return [wu ** (degree - k) * ww**k for k in range(degree + 1)]

    def a(self, b, c, d):
        """The a making Tr T, and with it the y^4 coefficient, vanish."""
        return -self.trace((b, c, d, 1)) / 5

    def alpha(self):
        """Root of the quadratic that the d^2 part of the y^3 coefficient forms in alpha.

        The d^2 part is -g(w1, w1)/2 for w1 = (alpha, 1, 1, 0); it does not
        involve eta or xi.
        """
        f = (0, 1, 1, 0)
        coeffs = [-self.g(f, f) / 2, -self.g(_E1, f), -self.g(_E1, _E1) / 2]
        return _form_root(coeffs, self.weights(f, _E1, 2), self.ctx, -1, 0, "alpha quadratic")

    def eta_xi(self, alpha):
        """(eta, xi) making the y^3 coefficient vanish identically in d.

        The d^1 part is affine in (eta, xi); solving it for eta and
        substituting into the d^0 part leaves a quadratic in xi.
        """
        ctx = self.ctx
        w1 = (alpha, 1, 1, 0)
        # d^1 part -g(w0, w1) with w0 = (xi, eta, 0, 1): u0 + u_eta*eta + u_xi*xi
        u0, u_eta, u_xi = (-self.g(e, w1) for e in (_E4, _E2, _E1))
        tol, ww = ctx.pow10(-(ctx.digits // 2)), self.weight(w1)
        zero_0, zero_eta, zero_xi = (
            negligible(u, [self.weight(e) * ww], tol) for u, e in ((u0, _E4), (u_eta, _E2), (u_xi, _E1))
        )
        # the solution line (eta, xi) = origin + t*step
        if not zero_eta:  # eta eliminated; t is xi
            origin, step = (-u0 / u_eta, 0), (-u_xi / u_eta, 1)
        elif not zero_xi:  # xi eliminated instead; t is eta
            origin, step = (0, -u0 / u_xi), (1, -u_eta / u_xi)
        elif zero_0:  # d^1 part already vanishes identically; pin eta = 0
            origin, step = (0, 0), (0, 1)
        else:
            raise DegenerateLeading("d^1 part of the y^3 coefficient is a nonzero constant")

        # d^0 part -g(w0, w0)/2 along the line, a quadratic in t
        z0 = (origin[1], origin[0], 0, 1)
        z1 = (step[1], step[0], 0, 0)
        coeffs = [-self.g(z0, z0) / 2, -self.g(z0, z1), -self.g(z1, z1) / 2]
        t = _form_root(coeffs, self.weights(z0, z1, 2), ctx, _XI_BRANCH, 0, "xi quadratic")
        return origin[0] + t * step[0], origin[1] + t * step[1]

    def d(self, alpha, eta, xi):
        """Root of the cubic that the y^2 coefficient forms in d."""
        # h(w0 + d*w1, ...)/3 expanded in d
        w0 = (xi, eta, 0, 1)
        w1 = (alpha, 1, 1, 0)
        h = self.h
        coeffs = [h(w0, w0, w0) / 3, h(w0, w0, w1), h(w0, w1, w1), h(w1, w1, w1) / 3]
        return _form_root(coeffs, self.weights(w0, w1, 3), self.ctx, -1, _D_INDEX, "d cubic")


def _form_root(coeffs, weights, ctx, branch, cardano_index, what):
    """Deterministic root of a form polynomial, degrading degree gracefully.

    ``coeffs`` is [c0, c1, ..., ck] lowest power first, and ``weights[k]``
    bounds the terms that ``coeffs[k]`` was summed from.  Leading
    coefficients negligible against their own weight are dropped: the
    equation is still solvable as long as anything nonzero is left in front
    of the constant term.
    """
    tol = ctx.pow10(-(ctx.digits // 2))
    live = len(coeffs) - 1
    while live > 0 and negligible(coeffs[live], [weights[live]], tol):
        live -= 1
    if live == 0:
        if negligible(coeffs[0], [weights[0]], tol):
            return ctx.mpc(0)  # identically zero: any value works
        raise DegenerateLeading(f"{what}: every coefficient above the constant vanished")
    if live == 1:
        return -coeffs[0] / coeffs[1]
    if live == 2:
        c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
        disc = sqrt_principal(c1 * c1 - 4 * c2 * c0, ctx)
        return (-c1 + branch * disc) / (2 * c2)
    from .closedform import cardano_roots  # closedform imports this module

    roots = cardano_roots(coeffs[3], coeffs[2], coeffs[1], coeffs[0], ctx)
    return roots[cardano_index]


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------


def _depressed(quintic: MonicQuintic, ctx: PrecisionCtx):
    """Shift removing the x^4 term; returns (depressed quintic, shift t)."""
    t = quintic.m / 5
    return quintic.shifted(t, ctx), t


def _attempt(quintic: MonicQuintic, ctx: PrecisionCtx):
    """One full parameter solve at fixed precision on an already-shifted quintic.

    The forms give the parameters; one determinant evaluation at the solved
    substitution then gives A, B and the vanishing residuals that certify it.
    """
    forms = TraceForms(quintic, ctx)
    alpha = forms.alpha()
    eta, xi = forms.eta_xi(alpha)
    d = forms.d(alpha, eta, xi)
    b = alpha * d + xi
    c = d + eta
    a = forms.a(b, c, d)
    poly = transformed_poly(quintic, a, b, c, d, ctx)
    A = poly.coeff(1)
    B = poly.coeff(0)
    norm = max(ctx.mpf(1), abs(A), abs(B))
    residuals = (
        abs(poly.coeff(4)) / norm,
        abs(poly.coeff(3)) / norm,
        abs(poly.coeff(2)) / norm,
    )
    params = TschirnhausParams(a=a, b=b, c=c, d=d, alpha=alpha, xi=xi, eta=eta, vanish_residuals=residuals)
    return params, A, B


def reduce_to_bring(quintic: MonicQuintic, ctx: PrecisionCtx) -> BringReduction:
    """Full reduction to y^5 + A*y + B = 0 with s = -B/(-A)^(5/4), at ``ctx``.

    Degenerate eliminations trigger a deterministic pre-shift ladder; a failed
    vanishing check raises PrecisionExhausted at this precision, leaving any
    retry at higher precision to the caller.  Shifted pure fifth powers, for
    which no quartic substitution can work, exit early as pure-radical
    reductions, as do reductions with A ~ 0 or B ~ 0.
    """
    base = quintic.rebind(ctx)

    # a shifted pure power never admits the elimination: 2m^2-5n is shift
    # invariant and the alpha equation becomes 0 = nonzero.  Its depressed
    # coefficients vanish, each against R^k for the degree 5 - k it sits at.
    dep, tdep = _depressed(base, ctx)
    rscale = root_scale(base.coeffs(), ctx)
    dtol = ctx.pow10(-ctx.digits + 10)
    if all(negligible(c, [rscale**k], dtol) for k, c in ((2, dep.n), (3, dep.p), (4, dep.q))):
        return BringReduction(
            A=ctx.mpc(0),
            B=dep.r,
            s=None,
            quartic_root_scale=None,
            shift=tdep,
            params=None,
            pure_radical="quintic",
            ctx=ctx,
        )

    last_exc = None
    for t_re, t_im in [(0, 0)] + _SHIFT_LADDER:
        t = ctx.mpc(t_re, t_im)
        shifted = base if t == 0 else base.shifted(t, ctx)
        try:
            params, A, B = _attempt(shifted, ctx)
        except DegenerateLeading as exc:
            last_exc = exc
            continue
        if max(params.vanish_residuals) > ctx.pow10(-(ctx.digits // 2)):
            raise PrecisionExhausted(
                f"vanishing residuals {[ctx.mp.nstr(v, 3) for v in params.vanish_residuals]} "
                f"at digits={ctx.digits}"
            )
        return _finish_reduction(params, A, B, t, ctx)
    raise ShiftLadderExhausted(f"every pre-shift left the elimination degenerate: {last_exc}")


def _finish_reduction(params, A, B, shift, ctx: PrecisionCtx) -> BringReduction:
    mp = ctx.mp
    tol = ctx.pow10(-(ctx.digits // 2))
    pure = None
    s = None
    scale4 = None
    # degeneracy scales follow the y-root magnitude: A ~ y^4, B ~ y^5
    if abs(A) <= tol * max(1, mp.root(abs(B), 5) ** 4):
        pure = "bring_A"
    else:
        scale4 = pow_rational(-A, 1, 4, ctx)
        s = -B / pow_rational(-A, 5, 4, ctx)
        if abs(B) <= tol * max(1, mp.root(abs(A), 4) ** 5):
            pure = "bring_B"
    return BringReduction(
        A=A,
        B=B,
        s=s,
        quartic_root_scale=scale4,
        shift=shift,
        params=params,
        pure_radical=pure,
        ctx=ctx,
    )
