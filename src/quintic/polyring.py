"""Dense univariate polynomials over a PrecisionCtx's mpc values.

Provides det(y*I + M) of a 5x5 scalar matrix M (the reduction's certificate
at M = M_T) in the context's own arithmetic, and the solver's one vanishing
test with the root scale it weighs polynomial values at.
"""

from __future__ import annotations

from .mpfield import PrecisionCtx

__all__ = ["Poly", "det5", "negligible", "root_scale", "value_terms"]


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


def det5(matrix, ctx: PrecisionCtx) -> Poly:
    """det(y*I + M) of a 5x5 scalar matrix M, given as rows, as a polynomial in y.

    Laplace expansion along the rows with minors shared across column subsets
    (bitmask dynamic programming), in the context's own arithmetic, which
    rounds to nearest like the rest of the solver.  Row r carries y only in
    column r, so that term adds the minor shifted up one power of y.
    """
    mpc = ctx.mp.mpc
    rows = [[mpc(v) for v in row] for row in matrix]

    # minors[mask] = coefficients in y of the det of the last popcount(mask) rows, columns in mask
    minors = {1 << c: [rows[4][c], mpc(1 if c == 4 else 0)] for c in range(5)}
    for r in range(3, -1, -1):
        for mask in range(32):
            if bin(mask).count("1") != 5 - r:
                continue
            acc = [0] * (6 - r)
            for k, c in enumerate(j for j in range(5) if mask >> j & 1):
                minor = minors[mask ^ (1 << c)]
                term = [rows[r][c] * v for v in minor] + [0]
                if c == r:  # y*I + M: add the minor shifted up one power of y
                    term = [t + v for t, v in zip(term, [0] + minor)]
                acc = [u - v if k % 2 else u + v for u, v in zip(acc, term)]
            minors[mask] = acc
    return Poly(minors[0b11111])
