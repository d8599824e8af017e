"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of rounds; a round is a list of inputs and
the loop in ``run.py`` only runs whole rounds, so every run sees the same mix
of cases.  An input carries what the program receives (five coefficients, or
one Bring parameter ``s``) and what the checker compares against (the
prescribed roots, the frozen golden strings, or nothing, in which case
``reference.py`` computes the roots independently).

Numbers are carried as plain Python values: a coefficient or root is a pair
(re, im) of floats, which convert exactly, or of exact decimal strings.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = {
    "random200": 200,
    "digits1000": 1000,
    "bring_paths": 200,
    "degenerate50": 50,
    "defects": 50,
}

# Fixed inputs that fail at the parent commit.  The three of ROADMAP item 1
# return wrong roots without raising (tiny), raise ZeroDivisionError (huge)
# and raise StageError (spread); a root pair 1e-16 apart comes back with 16
# correct digits of 50 (cluster_tight); and a Bring endpoint 1e-5 from a
# branch point raises StepLimitExceeded after about 9 s at 200 digits
# (ring_defect).  They make up the `defects` workload, where they count as
# failures; `correct` ignores only these names, so any other failure makes a
# run incorrect.  The other workloads hold only inputs that succeed, so that
# their timings compare like with like.
KNOWN_DEFECTS = ("roadmap_tiny", "roadmap_huge", "roadmap_spread", "cluster_tight", "ring_defect")

# |s| of the four branch points of z^5 - z - s, where 3125 s^4 = 256.
BRANCH_RADIUS = (256.0 / 3125.0) ** 0.25
BRANCH_POINTS = tuple(BRANCH_RADIUS * w for w in (1, 1j, -1, -1j))


@dataclass(frozen=True)
class Input:
    """One operation's input.

    kind        "quintic" (coeffs m, n, p, q, r) or "bring" (s)
    label       the family the input was drawn from
    coeffs      five (re, im) pairs for x^5 + m x^4 + n x^3 + p x^2 + q x + r
    s           (re, im) floats of the Bring parameter
    roots       exact reference roots as (re, im) decimal strings, or None
    digits      working precision, if not the workload's
    """

    kind: str
    label: str
    coeffs: tuple = ()
    s: tuple = ()
    roots: tuple | None = None
    digits: int | None = None


def rounds(workload: str, seed: int, golden_path: Path):
    """Endless generator of rounds (lists of Input) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "random200":
        yield [_golden(golden_path)]
    make = {
        "random200": _random_round,
        "digits1000": _random_round,
        "bring_paths": _bring_round,
        "degenerate50": _degenerate_round,
        "defects": _defects_round,
    }[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# random200 / digits1000: the acceptance-population distribution.
# ---------------------------------------------------------------------------


def _uniform_pair(rng, magnitude):
    return (rng.uniform(-magnitude, magnitude), rng.uniform(-magnitude, magnitude))


def _random_round(rng):
    coeffs = tuple(_uniform_pair(rng, 1000.0) for _ in range(5))
    return [Input("quintic", "random", coeffs=coeffs)]


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_LITERAL = re.compile(rf"^(?P<re>[+-]?{_NUM})?(?:(?P<im>(?(re)[+-]|[+-]?){_NUM})i)?$")


def split_literal(text: str):
    """A complex literal 'a', 'bi' or 'a+bi' as a pair of decimal strings."""
    match = _LITERAL.match(text.strip())
    if match is None or not (match.group("re") or match.group("im")):
        raise ValueError(f"not a complex literal: {text!r}")
    return (match.group("re") or "0", match.group("im") or "0")


def _golden(golden_path: Path):
    """The worked example, with its frozen 200-digit roots as the reference."""
    spec = importlib.util.spec_from_file_location("golden", golden_path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    coeffs = tuple(split_literal(c) for c in golden.GOLDEN_COEFFS)
    roots = tuple(split_literal(r) for r in golden.GOLDEN_ROOTS)
    return Input("quintic", "golden", coeffs=coeffs, roots=roots)


# ---------------------------------------------------------------------------
# bring_paths: four values of s from each region of the Bring plane per round.
# ---------------------------------------------------------------------------


def _segment_distance(end: complex, point: complex) -> float:
    """Distance from ``point`` to the segment 0 -> end."""
    t = max(0.0, min(1.0, (point * end.conjugate()).real / abs(end) ** 2))
    return abs(t * end - point)


def _clear_of_branch_points(s: complex) -> bool:
    # the reference tracks the straight path 0 -> s; keep it off the cuts
    return all(_segment_distance(s, bp) >= 0.005 for bp in BRANCH_POINTS)


def _polar(rng, radius):
    return cmath.rect(radius, rng.uniform(0.0, 2 * math.pi))


# Each draw takes u in [0, 1) from one stratum of the round (see _bring_round)
# and maps it onto the region's radius or distance; angles stay uniform.


def _series_s(rng, u):
    # 3125/256 |s|^4 <= 0.8 is the series disk
    return _polar(rng, 0.05 + 0.45 * u)


def _detour_s(rng, u):
    while True:
        bp = rng.choice(BRANCH_POINTS)
        s = cmath.rect(0.51 + 0.14 * u, cmath.phase(bp) + rng.uniform(-0.15, 0.15))
        if min(abs(s - b) for b in BRANCH_POINTS) >= 0.06 and _clear_of_branch_points(s):
            return s


def _ring_point(bp, distance, angle):
    # approached from the origin's side, so the straight path from 0 never
    # passes the branch point before reaching s
    return bp + cmath.rect(distance, cmath.phase(-bp) + angle)


def _ring_s(rng, u):
    # 1e-3 to 0.045 from a branch point; closer lies the failing zone that
    # ring_defect stands for
    distance = 10.0 ** (-3.0 + u * (3.0 + math.log10(0.045)))
    return _ring_point(rng.choice(BRANCH_POINTS), distance, rng.uniform(-1.3, 1.3))


def _ring_defect():
    s = _ring_point(BRANCH_POINTS[0], 1e-5, 0.6)
    return Input("bring", "ring_defect", s=(s.real, s.imag), digits=200)


def _far_s(rng, u):
    low = math.log10(0.7)
    while True:
        s = _polar(rng, 10.0 ** (low + u * (6.0 - low)))
        if _clear_of_branch_points(s):
            return s


BRING_STRATA = 4


def _bring_round(rng):
    # stratified: each region contributes one draw from each quarter of its
    # range, so every round has the same mix of easy and hard values of s
    out = []
    for k in range(BRING_STRATA):
        for label, draw in (("series", _series_s), ("detour", _detour_s), ("ring", _ring_s), ("far", _far_s)):
            s = draw(rng, (k + rng.random()) / BRING_STRATA)
            out.append(Input("bring", label, s=(s.real, s.imag)))
    return out


# ---------------------------------------------------------------------------
# degenerate50: the special-case families, built from roots where possible.
# ---------------------------------------------------------------------------


def _dec(rng, lo, hi, places=2):
    """Uniform exact decimal in [lo, hi] with ``places`` decimals."""
    scale = 10**places
    return Fraction(rng.randint(int(lo * scale), int(hi * scale)), scale)


def _cdec(rng, lo, hi):
    return (_dec(rng, lo, hi), _dec(rng, lo, hi))


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _coeffs_from_roots(roots):
    """Exact m, n, p, q, r of prod (x - root) for roots given as Fraction pairs."""
    poly = [(Fraction(1), Fraction(0))]  # lowest power first
    for root in roots:
        neg = (-root[0], -root[1])
        shifted = [(Fraction(0), Fraction(0))] + poly
        for i, c in enumerate(poly):
            t = _cmul(c, neg)
            shifted[i] = (shifted[i][0] + t[0], shifted[i][1] + t[1])
        poly = shifted
    return tuple(reversed(poly[:5]))


def _frac_str(value: Fraction) -> str:
    """Exact decimal string of a Fraction whose denominator divides a power of ten."""
    if value.denominator == 1:
        return str(value.numerator)
    for k in range(1, 400):
        scaled = value * 10**k
        if scaled.denominator == 1:
            return f"{scaled.numerator}e-{k}"
    raise ValueError(f"{value} is not a terminating decimal")


def _pairs(values):
    return tuple((_frac_str(re_), _frac_str(im_)) for re_, im_ in values)


def _from_roots(label, roots):
    roots = [(Fraction(r[0]), Fraction(r[1])) for r in roots]
    return Input("quintic", label, coeffs=_pairs(_coeffs_from_roots(roots)), roots=_pairs(roots))


def _from_coeffs(label, coeffs):
    return Input("quintic", label, coeffs=_pairs(coeffs))


def _defects_round(rng):
    tiny = [(Fraction(k) / 10**30, 0) for k in (1, 2, 3, 4, -5)]
    huge = [(Fraction(k * 10**30), Fraction(3 * 10**29)) for k in (1, 2, 3, 4, 5)]
    spread = [
        (Fraction(1, 10**10), 0),
        (1, 0),
        (10**10, 0),
        (0, 10**5),
        (7, 0),
    ]
    return [
        _from_roots("roadmap_tiny", tiny),
        _from_roots("roadmap_huge", huge),
        _from_roots("roadmap_spread", spread),
        _cluster_tight(),
        _ring_defect(),
    ]


def _degenerate_round(rng):
    zero = (Fraction(0), Fraction(0))
    out = []

    # (x + t)^5 + B: shifted pure fifth powers
    binom = [(Fraction(c), Fraction(0)) for c in (5, 10, 10, 5, 1)]
    for _ in range(2):
        t = _cdec(rng, -3, 3)
        big_b = (_dec(rng, 1, 50), _dec(rng, -50, 50))  # B != 0: no quintuple root
        powers = [t]
        for _ in range(4):
            powers.append(_cmul(powers[-1], t))
        coeffs = [_cmul(b, p) for b, p in zip(binom, powers)]
        coeffs[4] = (coeffs[4][0] + big_b[0], coeffs[4][1] + big_b[1])
        out.append(_from_coeffs("pure_power", coeffs))

    # the three families without a short-cut, twice each: their times vary
    # most from draw to draw
    for _ in range(2):
        # 2 m^2 = 5 n: the alpha equation degenerates for every shift
        m = _cdec(rng, -20, 20)
        m2 = _cmul(m, m)
        n = (2 * m2[0] / 5, 2 * m2[1] / 5)
        out.append(_from_coeffs("alpha_degenerate", [m, n] + [_cdec(rng, -500, 500) for _ in range(3)]))

        # m = 0 from four free roots and their negated sum
        free = [_cdec(rng, -5, 5) for _ in range(4)]
        last = (-sum(r[0] for r in free), -sum(r[1] for r in free))
        out.append(_from_roots("m_zero", free + [last]))

        # m = n = 0 has no rational parametrisation by roots; drawn by coefficients
        out.append(_from_coeffs("mn_zero", [zero, zero] + [_cdec(rng, -500, 500) for _ in range(3)]))

    out.append(_from_roots("x5_minus_x", [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]))

    # clustered roots, which make solve_quintic escalate precision: four
    # pairs (to 2x) and a triple (to 4x), each 1e-8 apart.  A run holds at
    # least three rounds of 14 operations, so the median falls among the
    # families above and the tail percentile (the eleventh slowest) near the
    # middle of the pairs.  Pairs closer than about 1e-12 reach the silent
    # failure that cluster_tight stands for.
    gap = Fraction(1, 10**8)
    for _ in range(4):
        center = _cdec(rng, -2, 2)
        others = [_cdec(rng, -3, 3) for _ in range(3)]
        out.append(_from_roots("cluster_pair", [center, (center[0] + gap, center[1])] + others))
    center = _cdec(rng, -2, 2)
    triple = [center, (center[0] + gap, center[1]), (center[0], center[1] + gap)]
    out.append(_from_roots("cluster_triple", triple + [_cdec(rng, -3, 3) for _ in range(2)]))
    return out


def _cluster_tight():
    center = (Fraction("0.7"), Fraction("0.3"))
    pair = [center, (center[0] + Fraction(1, 10**16), center[1])]
    others = [(Fraction("-1.1"), Fraction("0.2")), (Fraction("0.4"), Fraction("-1.3")), (Fraction("2.1"), Fraction("0.9"))]
    return _from_roots("cluster_tight", pair + others)
