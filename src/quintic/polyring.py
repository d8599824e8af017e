"""Dense univariate polynomial arithmetic over AppComplex.

Provides Horner evaluation, 5x5 determinants of matrices whose entries are
degree<=1 polynomials (the reduction's certificate det(y*I + M_T)),
synthetic-division deflation, and the solver's one vanishing test with the
root scale it weighs polynomial values at.
"""

from __future__ import annotations

from mpmath import libmp

from .errors import NotARoot
from .mpfield import PrecisionCtx

__all__ = ["Poly", "PolyMatrix5", "eval_poly", "det5", "deflate", "negligible", "root_scale", "value_terms"]


class Poly:
    """Immutable dense polynomial; coeffs[i] multiplies x**i.

    Trailing exact zeros are trimmed so the leading coefficient of a nonzero
    polynomial is nonzero; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def max_coeff_mag(self):
        return max((abs(v) for v in self.coeffs), default=0)

    @staticmethod
    def from_roots(roots, ctx: PrecisionCtx) -> "Poly":
        """Monic polynomial with the given roots."""
        p = [ctx.mpc(1)]
        for r in roots:
            r = ctx.convert(r)
            p = [0] + p
            for i in range(len(p) - 1):
                p[i] = p[i] - r * p[i + 1]
        return Poly(p)

    def __repr__(self):
        return f"Poly(degree={self.degree})"


class PolyMatrix5:
    """5x5 grid of Poly entries, each of degree <= 1."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != 5 or any(len(r) != 5 for r in entries):
            raise ValueError("PolyMatrix5 needs a 5x5 grid")
        for row in entries:
            for e in row:
                if e.degree > 1:
                    raise ValueError("matrix entries must have degree <= 1")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix5 is immutable")


def eval_poly(poly: Poly, x, ctx: PrecisionCtx):
    """Horner evaluation of poly at x."""
    x = ctx.convert(x)
    acc = ctx.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def negligible(value, terms, tol) -> bool:
    """The solver's one vanishing test: |value| <= tol * sum |term|.

    A computed sum carries rounding error in proportion to its terms, not to
    its result, so each site passes the terms it summed, or weights bounding
    them, instead of a scale of its own.
    """
    return abs(value) <= tol * sum(abs(t) for t in terms)


def root_scale(coeffs, ctx: PrecisionCtx):
    """R = max |c_k|^(1/k) of x^n + c_1 x^(n-1) + ... + c_n: every root lies within 2R."""
    return max(ctx.mp.root(abs(c), k) for k, c in enumerate(coeffs, start=1))


def value_terms(coeffs, ctx: PrecisionCtx):
    """Magnitudes of the terms of x^n + c_1 x^(n-1) + ... + c_n at |x| = R, its root scale.

    Values are weighed at R, not at |z| as a backward error is: a root is
    computed to an error proportional to R whatever its own size, and at |z|
    the zero root of x^5 - x, computed as about 1e-68, has backward error 1.
    """
    radius, n = root_scale(coeffs, ctx), len(coeffs)
    return [radius**n] + [abs(c) * radius ** (n - k) for k, c in enumerate(coeffs, start=1)]


_RAW_ZERO = (libmp.fzero, libmp.fzero)


def _raw(value, ctx):
    """Raw (re, im) mantissa pair of an AppComplex-ish value."""
    z = ctx.convert(value)
    if hasattr(z, "_mpc_"):
        return z._mpc_
    return (z._mpf_, libmp.fzero)


def _raw_neg(z):
    return (libmp.mpf_neg(z[0]), libmp.mpf_neg(z[1]))


def _raw_mul_linear(lin, p, prec):
    """(lin0 + lin1*x) * p on raw coefficient lists; p may be empty."""
    if not p:
        return []
    l0, l1 = lin
    mul = libmp.mpc_mul
    add = libmp.mpc_add
    if l0 == _RAW_ZERO:
        out = [_RAW_ZERO] * len(p) + [_RAW_ZERO]
    else:
        out = [mul(l0, v, prec) for v in p] + [_RAW_ZERO]
    if l1 != _RAW_ZERO:
        for i, v in enumerate(p):
            out[i + 1] = add(out[i + 1], mul(l1, v, prec), prec)
    while out and out[-1] == _RAW_ZERO:
        out.pop()
    return out


def det5(matrix: PolyMatrix5, ctx: PrecisionCtx) -> Poly:
    """Determinant of a 5x5 matrix of degree<=1 polynomials.

    Laplace expansion with minors shared across column subsets (bitmask
    dynamic programming), evaluated on raw mantissa pairs for speed; not
    normalized, the caller owns sign/leading coefficient conventions.
    """
    prec = ctx.mp.prec
    add = libmp.mpc_add
    rows = [
        [(_raw(e.coeff(0), ctx), _raw(e.coeff(1), ctx)) for e in row]
        for row in matrix.entries
    ]

    # minors[mask] = det of rows r..4 over the columns in mask
    minors = {}
    for c in range(5):
        e0, e1 = rows[4][c]
        lst = [e0, e1]
        while lst and lst[-1] == _RAW_ZERO:
            lst.pop()
        minors[1 << c] = lst
    for r in range(3, -1, -1):
        nxt = {}
        width = 5 - r
        for mask in range(32):
            if bin(mask).count("1") != width:
                continue
            acc = []
            sign = 1
            for c in range(5):
                bit = 1 << c
                if not mask & bit:
                    continue
                term = _raw_mul_linear(rows[r][c], minors[mask ^ bit], prec)
                if sign < 0:
                    term = [_raw_neg(v) for v in term]
                if len(acc) < len(term):
                    acc += [_RAW_ZERO] * (len(term) - len(acc))
                for i, v in enumerate(term):
                    acc[i] = add(acc[i], v, prec)
                sign = -sign
            nxt[mask] = acc
        minors = nxt
    make = ctx.mp.make_mpc
    return Poly([make(v) for v in minors[0b11111]])


def deflate(poly: Poly, root, ctx: PrecisionCtx) -> Poly:
    """Synthetic division by (x - root); the remainder must be negligible."""
    root = ctx.convert(root)
    scale = poly.max_coeff_mag()
    if abs(eval_poly(poly, root, ctx)) > ctx.pow10(-(ctx.digits // 2)) * scale:
        raise NotARoot(
            f"|p(root)| = {ctx.mp.nstr(abs(eval_poly(poly, root, ctx)), 5)} "
            f"exceeds deflation tolerance"
        )
    coeffs = poly.coeffs
    out = [0] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = acc
        acc = coeffs[k] + root * acc
    return Poly(out)
