"""Reference polynomial arithmetic, guarded interpolation, the paper's matrix,
a floating-point Bring root tracker and seeded random quintics.

The solver itself never adds, multiplies, evaluates, deflates or fits
polynomials, nor weighs by the coefficient scale max(1, |c|); the tests use
these to build independent oracles (the 120-permutation determinant, the
multiply-back check of deflation, the determinant sampled at integer nodes
and interpolated with a degree guard, and the paper's transcribed
elimination matrix, rows of Poly entries that the solver's scalar M_T is
checked against entry by entry).  ``track_bring_root`` follows the Bring
branch in double precision, apart from the solver's charts, so that a
continuation landing on the wrong root of z^5 - z - s shows.
"""

from quintic.errors import NotARoot, QuinticError
from quintic.polyring import Poly
from quintic.tschirnhaus import MonicQuintic


# the four s at which z^5 - z - s has a double root: 3125 s^4 = 256
BRING_BRANCH_POINTS = tuple((256 / 3125) ** 0.25 * w for w in (1, 1j, -1, -1j))


class DegreeGuardFailure(QuinticError):
    """Sampled values failed the degree guard of ``fit_coeffs``.

    The sampled function is not a polynomial of the claimed degree, or
    cancellation swamped its values.
    """


def random_quintic(rng, ctx, magnitude=5.0) -> MonicQuintic:
    """Coefficients with real and imaginary parts uniform in [-magnitude, magnitude]."""

    def draw():
        return ctx.mpc(rng.uniform(-magnitude, magnitude), rng.uniform(-magnitude, magnitude))

    return MonicQuintic(draw(), draw(), draw(), draw(), draw())


def poly_add(p: Poly, q: Poly) -> Poly:
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = out[i] + v
    return Poly(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, Poly([-v for v in q.coeffs]))


def poly_mul(p: Poly, q: Poly) -> Poly:
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return Poly(())
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return Poly(out)


def max_coeff_mag(p: Poly):
    return max((abs(v) for v in p.coeffs), default=0)


def poly_from_roots(roots, ctx) -> Poly:
    """Monic polynomial with the given roots."""
    p = [ctx.mpc(1)]
    for r in roots:
        r = ctx.convert(r)
        p = [0] + p
        for i in range(len(p) - 1):
            p[i] = p[i] - r * p[i + 1]
    return Poly(p)


def eval_poly(poly: Poly, x, ctx):
    """Horner evaluation of poly at x."""
    x = ctx.convert(x)
    acc = ctx.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def deflate(poly: Poly, root, ctx) -> Poly:
    """Synthetic division by (x - root); the remainder must be negligible."""
    root = ctx.convert(root)
    if abs(eval_poly(poly, root, ctx)) > ctx.pow10(-(ctx.digits // 2)) * max_coeff_mag(poly):
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


def conjugate_quintic(quintic: MonicQuintic, ctx) -> MonicQuintic:
    """The quintic whose coefficients are the complex conjugates of quintic's."""
    return MonicQuintic(*(ctx.mp.conj(ctx.convert(v)) for v in quintic.coeffs()))


def fit_coeffs(samples, expected_degree: int, ctx, scale=None):
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


def quintic_scale(quintic, ctx):
    """max(1, |m|, |n|, |p|, |q|, |r|): the coefficient scale the property tests weigh by."""
    return max(ctx.mpf(1), *(abs(v) for v in quintic.coeffs()))


def paper_elimination_matrix(quintic, a, b, c, d, ctx) -> list:
    """The paper's 5x5 elimination matrix, transcribed term by term, as rows.

    Entries are degree<=1 polynomials in y.  Row i is column i of y*I + M_T,
    M_T the matrix of multiplication by T(x) = x^4 + d*x^3 + c*x^2 + b*x + a
    modulo the quintic, times the sign (+, -, -, +, -)[i], so the
    determinant is -prod(y + T(x_i)).
    """
    m, n, p, q, r = (ctx.convert(v) for v in quintic.coeffs())
    a, b, c, d = (ctx.convert(v) for v in (a, b, c, d))
    one = ctx.mpc(1)
    m2 = m * m
    m3 = m2 * m
    m4 = m3 * m

    def C(v):
        return Poly([v])

    def L(v0, v1):
        return Poly([v0, v1])

    row1 = [L(a, one), C(b), C(c), C(d), C(one)]
    row2 = [C(r), L(q - a, -one), C(p - b), C(n - c), C(m - d)]
    row3 = [
        C(d * r - m * r),
        C(r - m * q + d * q),
        L(q - a - m * p + d * p, -one),
        C(p - b - m * n + d * n),
        C(n + d * m - m2 - c),
    ]
    row4 = [
        C(-m2 * r - c * r + n * r + d * m * r),
        C(m * r - d * r - m2 * q - c * q + d * m * q + n * q),
        C(n * p - r + d * m * p - d * q + m * q - m2 * p - c * p),
        L(a + d * m * n - d * p - m2 * n - q + n * n + m * p - c * n, one),
        C(-c * m - m3 + b - p + d * m2 + 2 * m * n - d * n),
    ]
    row5 = [
        C(b * r - m3 * r - d * n * r + d * m2 * r + 2 * m * n * r - p * r - c * m * r),
        C(b * q - c * m * q - n * r - d * m * r - d * n * q + c * r + m2 * r - m3 * q + 2 * m * n * q - p * q + d * m2 * q),
        C(c * q + 2 * m * n * p - d * n * p - p * p + b * p - n * q + d * m2 * p - m * r - d * m * q - c * m * p + m2 * q - m3 * p + d * r),
        C(-d * m * p + d * m2 * n + c * p + d * q + 2 * m * n * n - c * m * n - m3 * n - 2 * n * p - m * q + m2 * p + b * n - d * n * n + r),
        L(b * m - 2 * m * p + q + c * n - 2 * d * m * n - a + 3 * m2 * n - c * m2 + d * m3 - n * n - m4 + d * p, -one),
    ]
    return [row1, row2, row3, row4, row5]


def track_bring_root(s: complex) -> complex:
    """The root of z^5 - z - s continued in floats from z = 0 along 0 -> s.

    RK4 on dz/ds = 1 / (5 z^4 - 1), each step 0.05 times the distance to the
    nearest branch point and followed by four Newton corrections, so the
    tracked root never jumps to the one it meets at that branch point.
    """
    length = abs(s)
    if length == 0:
        return 0j
    unit = s / length
    z = 0j
    done = 0.0
    while done < length:
        gap = min(abs(unit * done - bp) for bp in BRING_BRANCH_POINTS)
        h = min(length - done, 0.05 * gap)
        ds = unit * h
        k1 = 1 / (5 * z**4 - 1)
        k2 = 1 / (5 * (z + ds * k1 / 2) ** 4 - 1)
        k3 = 1 / (5 * (z + ds * k2 / 2) ** 4 - 1)
        k4 = 1 / (5 * (z + ds * k3) ** 4 - 1)
        z += ds * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        done = length if h == length - done else done + h
        target = s if done == length else unit * done
        for _ in range(4):
            z -= (z**5 - z - target) / (5 * z**4 - 1)
    return z
