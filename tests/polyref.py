"""Reference polynomial arithmetic and guarded interpolation for the tests.

The solver itself never adds, multiplies or fits polynomials; the tests use
these to build independent oracles (the 120-permutation determinant, the
multiply-back check of deflation and the determinant sampled at integer
nodes and interpolated with a degree guard).
"""

from quintic.errors import QuinticError
from quintic.polyring import Poly, eval_poly


class DegreeGuardFailure(QuinticError):
    """Sampled values failed the degree guard of ``fit_coeffs``.

    The sampled function is not a polynomial of the claimed degree, or
    cancellation swamped its values.
    """


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


def poly_scale(p: Poly, k) -> Poly:
    return Poly([v * k for v in p.coeffs])


def poly_mul(p: Poly, q: Poly) -> Poly:
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return Poly(())
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return Poly(out)


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
