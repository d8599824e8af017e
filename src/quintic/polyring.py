"""Dense univariate polynomials over AppComplex.

Provides the 5x5 determinant of a matrix whose entries are degree<=1
polynomials (the reduction's certificate det(y*I + M_T)), computed in the
context's own arithmetic, and the solver's one vanishing test with the root
scale it weighs polynomial values at.
"""

from __future__ import annotations

from .mpfield import PrecisionCtx

__all__ = ["Poly", "PolyMatrix5", "det5", "negligible", "root_scale", "value_terms"]


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


def det5(matrix: PolyMatrix5, ctx: PrecisionCtx) -> Poly:
    """Determinant of a 5x5 matrix of degree<=1 polynomials.

    Laplace expansion along the rows with minors shared across column subsets
    (bitmask dynamic programming), in the context's own arithmetic, which
    rounds to nearest like the rest of the solver; not normalized, the
    caller owns sign/leading coefficient conventions.
    """
    mpc = ctx.mp.mpc
    rows = [[(mpc(e.coeff(0)), mpc(e.coeff(1))) for e in row] for row in matrix.entries]

    # minors[mask] = coefficients of the det of rows r..4 over the columns in mask
    minors = {1 << c: list(rows[4][c]) for c in range(5)}
    for r in range(3, -1, -1):
        nxt = {}
        for mask in range(32):
            if bin(mask).count("1") != 5 - r:
                continue
            acc = [0] * (6 - r)
            sign = 1
            for c in range(5):
                bit = 1 << c
                if not mask & bit:
                    continue
                l0, l1 = rows[r][c]
                minor = minors[mask ^ bit]
                term = [l0 * v for v in minor] + [0]
                if l1:
                    for i, v in enumerate(minor):
                        term[i + 1] += l1 * v
                if sign > 0:
                    acc = [u + v for u, v in zip(acc, term)]
                else:
                    acc = [u - v for u, v in zip(acc, term)]
                sign = -sign
            nxt[mask] = acc
        minors = nxt
    return Poly(minors[0b11111])
