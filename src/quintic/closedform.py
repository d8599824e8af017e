"""Cardano and Ferrari kernels, root selection, deflation, and the full solve.

The end-to-end path: reduce the quintic to y^5 + A*y + B, solve the Bring
form for one value y, solve the quartic substitution
x^4 + d*x^3 + c*x^2 + b*x + (a + y) = 0 with Ferrari's method, keep the one
quartic root that also satisfies the quintic, deflate it out, and Ferrari
the remaining quartic for the other four roots.  Every returned root is
certified by its Weierstrass inclusion radius; failures escalate precision
before erroring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bring import PURE_RADICAL, BringSolution, solve_bring
from .errors import (
    AmbiguousSelection,
    QuinticError,
    DegenerateCubic,
    NearBranchPoint,
    NotARoot,
    PrecisionExhausted,
    ResolventFailure,
    StageError,
)
from .mpfield import PrecisionCtx, pow_rational, sqrt_principal
from .polyring import negligible, root_scale, value_terms
from .tschirnhaus import BringReduction, MonicQuintic, reduce_to_bring

__all__ = [
    "QuarticCoeffs",
    "RootReport",
    "cardano_roots",
    "ferrari_roots",
    "select_quintic_root",
    "deflate_quintic",
    "inclusion_radii",
    "solve_quintic",
]


@dataclass(frozen=True)
class QuarticCoeffs:
    """Monic quartic x^4 + p3 x^3 + p2 x^2 + p1 x + p0."""

    p3: object
    p2: object
    p1: object
    p0: object

    def eval(self, x, ctx):
        x = ctx.convert(x)
        return (((x + self.p3) * x + self.p2) * x + self.p1) * x + self.p0


@dataclass(frozen=True)
class RootReport:
    """Five certified roots plus the evidence used to produce them."""

    roots: tuple
    residuals: tuple
    radii: tuple  # inclusion radii, one error bound per root
    bring: BringSolution
    reduction: BringReduction
    candidate_residuals: tuple
    precision_used: int


def cardano_roots(c3, c2, c1, c0, ctx: PrecisionCtx):
    """All three roots of c3 x^3 + c2 x^2 + c1 x + c0.

    Index 0 is the principal-branch closed form (cube root and square root
    both principal); the other two rotate the cube-root term by the primitive
    cube roots of unity, ordered by increasing argument of the rotation
    factor in [0, 2*pi).
    """
    mp = ctx.mp
    c3, c2, c1, c0 = (ctx.convert(v) for v in (c3, c2, c1, c0))
    # only zero is negligible against itself; callers drop a leading
    # coefficient that vanished against its terms (the resolvent is monic)
    if c3 == 0:
        raise DegenerateCubic("leading coefficient is zero")

    tol = ctx.pow10(-ctx.digits)
    rad_terms = (4 * c1**3 * c3, c1**2 * c2**2, 18 * c1 * c2 * c3 * c0, 27 * c0**2 * c3**2, 4 * c0 * c2**3)
    rad = rad_terms[0] - rad_terms[1] - rad_terms[2] + rad_terms[3] + rad_terms[4]
    sq3 = mp.sqrt(mp.mpf(3))
    core_terms = (36 * c1 * c2 * c3, 108 * c0 * c3**2, 8 * c2**3)
    core = core_terms[0] - core_terms[1] - core_terms[2]
    wing = 12 * sq3 * sqrt_principal(rad, ctx) * c3
    if negligible(rad, rad_terms, tol) and negligible(core, core_terms, tol):
        triple = -c2 / (3 * c3)  # discriminant and depressed cube both vanished
        return [triple, triple, triple]
    big = core + wing
    if negligible(big, (core, wing), tol):
        big = core - wing  # the other sign; both vanish only at core = wing = 0, the triple root

    cr = pow_rational(big, 1, 3, ctx)
    omega = mp.exp(2j * mp.pi / 3)
    mid = 3 * c1 * c3 - c2 * c2
    roots = []
    for rot in (1, omega, omega * omega):
        ck = cr * rot
        roots.append(ck / (6 * c3) - mp.mpf(2) / 3 * mid / (c3 * ck) - c2 / (3 * c3))
    return roots


def ferrari_roots(quartic: QuarticCoeffs, ctx: PrecisionCtx):
    """Four roots of a monic quartic via the resolvent-cubic factorization.

    The quartic splits as (x^2 + (p3/2)x + g)^2 - (e*x + f)^2 where g is a
    resolvent root, e = sqrt(p3^2/4 + 2g - p2) and f = (p3*g - p1)/(2e); the
    degenerate e ~ 0 case uses f = sqrt(g^2 - p0).  Resolvent roots are tried
    in cardano order until the quartic's values at the four roots are
    negligible against its terms at its root scale.
    """
    mp = ctx.mp
    p3, p2, p1, p0 = (ctx.convert(v) for v in (quartic.p3, quartic.p2, quartic.p1, quartic.p0))
    q = QuarticCoeffs(p3, p2, p1, p0)

    # resolvent cubic from the factorization identity
    # (p3 g - p1)^2 = 4 (p3^2/4 + 2g - p2)(g^2 - p0), expanded and made monic
    r2 = -p2 / 2
    r1 = (p1 * p3 - 4 * p0) / 4
    r0 = -(p1 * p1 + p3 * p3 * p0 - 4 * p2 * p0) / 8
    candidates = cardano_roots(ctx.mpc(1), r2, r1, r0, ctx)

    tol = ctx.pow10(-ctx.digits + 12)
    terms = value_terms((p3, p2, p1, p0), ctx)
    e_tol = ctx.pow10(-2 * (ctx.digits // 2))  # e ~ 0 to half the digits, tested on e^2
    worst = []
    for g in candidates:
        lift = p3 * p3 / 4 + 2 * g - p2
        e = sqrt_principal(lift, ctx)
        if negligible(lift, (p3 * p3 / 4, 2 * g, p2), e_tol):
            f = sqrt_principal(g * g - p0, ctx)
        else:
            f = (p3 * g - p1) / (2 * e)
        s1 = sqrt_principal(p3 * p3 - 4 * p3 * e + 4 * e * e + 16 * f - 16 * g, ctx)
        s2 = sqrt_principal(p3 * p3 + 4 * p3 * e + 4 * e * e - 16 * f - 16 * g, ctx)
        roots = [
            -p3 / 4 + e / 2 + s1 / 4,
            -p3 / 4 + e / 2 - s1 / 4,
            -p3 / 4 - e / 2 + s2 / 4,
            -p3 / 4 - e / 2 - s2 / 4,
        ]
        worst.append(max(abs(q.eval(r, ctx)) for r in roots))
        if negligible(worst[-1], terms, tol):
            return roots
    shown = ", ".join(mp.nstr(v, 5) for v in worst)
    raise ResolventFailure(f"no resolvent root factored the quartic: residuals {shown}, terms {mp.nstr(sum(terms), 5)}")


def select_quintic_root(quintic: MonicQuintic, candidates, ctx: PrecisionCtx):
    """Pick the quartic root that also satisfies the quintic.

    Returns (root, index, residuals).  The winner's residual must be
    negligible against the quintic's terms at its root scale, and beat the
    runner-up by a factor 10^(digits/4); anything less is reported as
    ambiguous rather than silently guessed.
    """
    mp = ctx.mp
    residuals = [abs(quintic.eval(cand, ctx)) for cand in candidates]
    low = min(residuals)
    winner = min(i for i, res in enumerate(residuals) if res <= 10 * low)
    others = [res for i, res in enumerate(residuals) if i != winner]
    runner_up = min(others)
    win_res = residuals[winner]
    ok_abs = negligible(win_res, value_terms(quintic.coeffs(), ctx), ctx.pow10(-(ctx.digits // 2)))
    ok_sep = win_res * ctx.pow10(ctx.digits // 4) <= runner_up
    if not (ok_abs and ok_sep):
        raise AmbiguousSelection(
            "no quartic root decisively satisfies the quintic: residuals "
            + ", ".join(mp.nstr(r, 5) for r in residuals),
            residuals=residuals,
        )
    return candidates[winner], winner, residuals


def deflate_quintic(quintic: MonicQuintic, r1, ctx: PrecisionCtx) -> QuarticCoeffs:
    """Factor out a known root: the quartic left after dividing by (x - r1).

    Uses the direct coefficient formulas, after checking that r1 is a root
    to half the working digits; the tests compare them with a
    synthetic-division reference.
    """
    m, n, p, q, r = (ctx.convert(v) for v in quintic.coeffs())
    r1 = ctx.convert(r1)
    if not negligible(quintic.eval(r1, ctx), value_terms(quintic.coeffs(), ctx), ctx.pow10(-(ctx.digits // 2))):
        raise NotARoot("deflate_quintic called with a non-root")
    dd = m + r1
    cc = n + r1 * r1 + m * r1
    bb = p + r1 * n + r1**3 + m * r1 * r1
    aa = q + r1 * p + r1 * r1 * n + r1**4 + m * r1**3
    return QuarticCoeffs(p3=dd, p2=cc, p1=bb, p0=aa)


def _fifth_roots(value, ctx):
    mp = ctx.mp
    principal = pow_rational(value, 1, 5, ctx)
    omega = mp.exp(2j * mp.pi / 5)
    out = [principal]
    for _ in range(4):
        out.append(out[-1] * omega)
    return out


def inclusion_radii(quintic: MonicQuintic, roots, ctx: PrecisionCtx, digits: int):
    """Residuals |Q(z_i)| and inclusion radii r_i = 5 |Q(z_i)| / |prod_{j != i} (z_i - z_j)|.

    The disks D(z_i, r_i) cover the roots, and a connected group of k of
    them holds exactly k (Carstensen, Numer. Math. 59, 1991), so r_i bounds
    the error of z_i.  Raises PrecisionExhausted unless every
    r_i <= 10^(-digits/2) * max(|z_i|, 10^(-digits/2) * R), R the root scale.
    """
    mp = ctx.mp
    residuals = tuple(abs(quintic.eval(z, ctx)) for z in roots)
    half = ctx.pow10(-(digits // 2))
    floor = half * root_scale(quintic.coeffs(), ctx)
    radii = []
    for i, z in enumerate(roots):
        gap = mp.fprod(abs(z - w) for j, w in enumerate(roots) if j != i)
        radii.append(5 * residuals[i] / gap if gap else mp.inf)
        if radii[i] > half * max(abs(z), floor):
            raise PrecisionExhausted(
                f"root r{i + 1}: inclusion radius {mp.nstr(radii[i], 3)} (residual "
                f"{mp.nstr(residuals[i], 3)}) leaves fewer than {digits // 2} correct digits"
            )
    return residuals, tuple(radii)


def _solve_at(quintic: MonicQuintic, ctx: PrecisionCtx, base_digits: int) -> RootReport:
    """One pass of the pipeline at ``ctx``.

    Failures that a higher precision may cure propagate bare; any other
    QuinticError is wrapped with the stage it occurred in.
    """
    stage = "reduce"
    try:
        reduction = reduce_to_bring(quintic, ctx)
        base = quintic.rebind(ctx)
        zero = ctx.mpf(0)
        if reduction.pure_radical is None:
            stage = "bring"
            bring_sol = solve_bring(reduction.s, ctx)
        else:
            stage = "radical"
            bring_sol = BringSolution(z=ctx.mpc(0), strategy=PURE_RADICAL, residual=zero, terms_or_steps=0)

        if reduction.pure_radical == "quintic":
            roots = tuple(x - reduction.shift for x in _fifth_roots(-reduction.B, ctx))
            cand_res = (zero, zero, zero, zero)
        else:
            if reduction.pure_radical == "bring_A":
                y = pow_rational(-reduction.B, 1, 5, ctx)
            elif reduction.pure_radical == "bring_B":
                y = ctx.mpc(0)
            else:
                y = reduction.quartic_root_scale * bring_sol.z
            params = reduction.params
            shifted_q = base if reduction.shift == 0 else base.shifted(reduction.shift, ctx)
            stage = "ferrari"
            tsh_quartic = QuarticCoeffs(p3=params.d, p2=params.c, p1=params.b, p0=params.a + y)
            candidates = ferrari_roots(tsh_quartic, ctx)
            stage = "select"
            r1, _, cand_res = select_quintic_root(shifted_q, candidates, ctx)
            stage = "deflate"
            rest = ferrari_roots(deflate_quintic(shifted_q, r1, ctx), ctx)
            roots = tuple(x - reduction.shift for x in [r1, *rest])

        stage = "verify"
        residuals, radii = inclusion_radii(base, roots, ctx, base_digits)
    except (PrecisionExhausted, AmbiguousSelection, NearBranchPoint):
        raise
    except QuinticError as exc:
        raise StageError(stage, exc) from exc
    return RootReport(
        roots=roots,
        residuals=residuals,
        radii=radii,
        bring=bring_sol,
        reduction=reduction,
        candidate_residuals=tuple(cand_res),
        precision_used=ctx.digits,
    )


def solve_quintic(quintic: MonicQuintic, ctx: PrecisionCtx) -> RootReport:
    """All five roots of a monic quintic, in closed form, certified.

    Orchestrates reduction -> Bring root -> Ferrari -> selection ->
    deflation -> Ferrari, un-shifts if the reduction pre-shifted, and
    certifies every root by its inclusion radius before returning.  This is
    the solver's only precision ladder: a failed vanishing check, a root
    whose radius exceeds half the digits, an ambiguous selection or a Bring
    parameter on a branch point retries the whole solve at 2x then 4x
    precision; structural failures propagate wrapped with their pipeline
    stage.
    """
    last = None
    for factor in (1, 2, 4):
        wctx = ctx if factor == 1 else ctx.escalated(factor)
        try:
            return _solve_at(quintic, wctx, ctx.digits)
        except (PrecisionExhausted, AmbiguousSelection, NearBranchPoint) as exc:
            last = exc
    if isinstance(last, PrecisionExhausted):
        raise PrecisionExhausted(f"still failing at 4x precision: {last}") from last
    raise StageError("select", last)
