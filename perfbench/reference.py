"""Reference roots, computed apart from the solver, and the error measure.

References are computed outside the timed phase, in private mpmath contexts
30 digits wider than the workload:

- the golden example: the frozen strings of ``tests/golden.py``;
- quintics built from roots: the prescribed roots;
- other quintics: ``mpmath.polyroots`` at 60 digits, Newton-polished;
- Bring parameters: the root of z^5 - z - s tracked in floating point along
  the straight path from s = 0 (where z = 0), then Newton-polished.

Errors are relative to each reference root's own magnitude (a zero root is
measured against the largest root), never to ``1 + max|root|`` as
``match_rootsets`` does, which would accept roots 1e-30 off on a quintic
whose roots are all about 1e-30.
"""

from __future__ import annotations

from itertools import permutations

from mpmath.ctx_mp import MPContext

from workloads import BRANCH_POINTS

EXTRA_DIGITS = 30


class NoReference(Exception):
    """The independent reference could not be established for an input."""


def context(digits: int) -> MPContext:
    mp = MPContext()
    mp.dps = digits + EXTRA_DIGITS
    return mp


def to_mpc(mp, pair):
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def reference_roots(inp, digits: int):
    """The reference root list of an input, in a context of digits + 30."""
    mp = context(digits)
    if inp.kind == "bring":
        s = complex(*inp.s)
        poly = [mp.mpc(1), 0, 0, 0, mp.mpc(-1), -to_mpc(mp, inp.s)]
        return [_polish(mp, poly, _track_bring_root(s))]
    if inp.roots is not None:
        return [to_mpc(mp, r) for r in inp.roots]
    poly = [mp.mpc(1)] + [to_mpc(mp, c) for c in inp.coeffs]
    low = MPContext()
    low.dps = 60
    starts = low.polyroots([low.mpc(c) for c in poly], maxsteps=200, extraprec=200)
    roots = [_polish(mp, poly, z) for z in starts]
    size = max(abs(r) for r in roots)
    gap = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :])
    if gap <= mp.mpf(10) ** (-mp.dps // 2) * size:
        raise NoReference("two polished roots coincide")
    return roots


def _polish(mp, poly, start):
    """Newton on poly (highest power first) from ``start`` to full precision."""
    z = mp.mpc(start)
    tol = mp.mpf(10) ** (-mp.dps + 5)
    for _ in range(60):
        value, slope = mp.polyval(poly, z, derivative=True)
        if slope == 0:
            break
        step = value / slope
        z -= step
        if abs(step) <= tol * max(1, abs(z)):
            return z
    raise NoReference(f"Newton polish did not settle from {start}")


def _bring_slope(z: complex) -> complex:
    return 1 / (5 * z**4 - 1)  # dz/ds on z^5 - z - s = 0


def _track_bring_root(s: complex) -> complex:
    """Float continuation of z(0) = 0 along 0 -> s for z^5 - z - s = 0.

    Steps shrink with the distance to the nearest branch point, where the
    tracked root meets another, so the corrector never jumps branches.
    """
    total = abs(s)
    if total == 0:
        return 0j
    direction = s / total
    z = 0j
    travelled = 0.0
    while travelled < total:
        gap = min(abs(direction * travelled - bp) for bp in BRANCH_POINTS)
        h = min(total - travelled, 0.05 * gap)
        ds = direction * h
        k1 = _bring_slope(z)
        k2 = _bring_slope(z + ds * k1 / 2)
        k3 = _bring_slope(z + ds * k2 / 2)
        k4 = _bring_slope(z + ds * k3)
        z += ds * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        travelled = total if h == total - travelled else travelled + h
        target = s if travelled == total else direction * travelled
        for _ in range(4):
            z -= (z**5 - z - target) / (5 * z**4 - 1)
    return z


def accuracy_digits(returned, reference, mp) -> float:
    """Correct digits of the worst returned root under the best pairing.

    Each root's error is taken relative to its reference root's magnitude;
    the pairing minimises the worst such error over all permutations.
    """
    refs = [mp.mpc(r) for r in reference]
    got = [mp.mpc(x) for x in returned]
    if len(got) != len(refs):
        return float("-inf")
    largest = max(abs(r) for r in refs)
    scales = [abs(r) if r != 0 else largest for r in refs]
    worst = min(
        max(abs(got[perm[i]] - refs[i]) / scales[i] for i in range(len(refs)))
        for perm in permutations(range(len(refs)))
    )
    if worst == 0:
        return float(mp.dps)
    return float(-mp.log10(worst))
