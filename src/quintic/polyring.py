"""Dense univariate polynomial arithmetic over AppComplex.

Provides Horner evaluation, 5x5 determinants of matrices whose entries are
degree<=1 polynomials (the elimination matrix), synthetic-division deflation,
and degree-guarded interpolation, which the tests use to rebuild the
reduction's forms from sampled determinants as an independent reference.
"""

from __future__ import annotations

from mpmath import libmp

from .errors import DegreeGuardFailure, NotARoot
from .mpfield import PrecisionCtx

__all__ = ["Poly", "PolyMatrix5", "eval_poly", "det5", "fit_coeffs", "deflate"]


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

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return Poly(out)

    def __neg__(self):
        return Poly([-v for v in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([v * other for v in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = out[i + j] + u * v
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, k):
        return Poly([v * k for v in self.coeffs])

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


def fit_coeffs(samples, expected_degree: int, ctx: PrecisionCtx, scale=None):
    """Degree-verified interpolation.

    ``samples`` holds exactly expected_degree + 2 (node, value) pairs with
    pairwise-distinct nodes; the first expected_degree + 1 define the unique
    interpolant, the last is a guard node.  The guard's predicted value must
    match its sampled value to 10**(-digits/2) relative, certifying that the
    sampled quantity really is a polynomial of the expected degree.
    """
    d = expected_degree
    samples = [(ctx.convert(x), ctx.convert(v)) for x, v in samples]
    if len(samples) != d + 2:
        raise ValueError(f"need exactly {d + 2} samples, got {len(samples)}")
    nodes = [x for x, _ in samples[: d + 1]]
    vals = [v for _, v in samples[: d + 1]]
    guard_x, guard_v = samples[d + 1]

    # Newton divided differences.
    dd = list(vals)
    for level in range(1, d + 1):
        for i in range(d, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])

    # Expand Newton form into monomial coefficients.
    coeffs = [ctx.mpc(0)] * (d + 1)
    basis = [ctx.mpc(1)]  # prod_{j<level} (x - node_j)
    for level in range(d + 1):
        for i, b in enumerate(basis):
            coeffs[i] = coeffs[i] + dd[level] * b
        if level < d:
            nb = [0] + basis
            for i in range(len(basis)):
                nb[i] = nb[i] - nodes[level] * basis[i]
            basis = nb

    predicted = eval_poly(Poly(coeffs), guard_x, ctx)
    if scale is None:
        scale = max(abs(v) for _, v in samples)
    else:
        scale = abs(ctx.convert(scale))
    if abs(predicted - guard_v) > ctx.pow10(-(ctx.digits // 2)) * scale:
        raise DegreeGuardFailure(
            f"degree-{d} guard failed: |predicted - sampled| = "
            f"{ctx.mp.nstr(abs(predicted - guard_v), 5)} vs scale {ctx.mp.nstr(scale, 5)}"
        )
    return coeffs


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
