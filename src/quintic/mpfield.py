"""Arbitrary-precision complex arithmetic with principal-branch elementary functions.

This is the numeric substrate for the whole solver.  Values are mpmath
``mpc`` instances owned by an explicit :class:`PrecisionCtx`;
there is no ambient global precision state, so independent solves at
different precisions can run concurrently.  All multivalued functions use
principal branches with the cut on the negative real axis, arg in (-pi, pi].

Internally every operation runs with ``GUARD_DIGITS`` extra decimal digits;
results are only rounded down to the user-facing digit count when formatted.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd as _gcd

from mpmath.ctx_mp import MPContext
from mpmath import libmp

from .errors import OverflowEscape, ParseError, ZeroToNegativePower

__all__ = [
    "PrecisionCtx",
    "sqrt_principal",
    "pow_rational",
    "parse_complex",
    "format_complex",
]

# Decimal digits every context carries beyond its user-facing count.
GUARD_DIGITS = 20


@dataclass(frozen=True)
class PrecisionCtx:
    """Explicit working-precision context.

    digits  user-facing precision in decimal digits (>= 30); arithmetic
            runs at working_dps = digits + GUARD_DIGITS
    """

    digits: int

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")
        mp = MPContext()
        mp.dps = self.working_dps
        object.__setattr__(self, "_mp", mp)

    @property
    def mp(self) -> MPContext:
        """The private mpmath context (dps = working_dps)."""
        return self._mp

    @property
    def working_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    def mpc(self, re=0, im=0):
        """Build an mpc of this context from numbers or decimal strings."""
        mp = self._mp
        if im == 0 and isinstance(re, str):
            return parse_complex(re, self)
        return mp.mpc(mp.mpmathify(re), mp.mpmathify(im))

    def mpf(self, x):
        return self._mp.mpf(x)

    def convert(self, z):
        """Re-bind a value (possibly from another context) into this one."""
        mp = self._mp
        if hasattr(z, "_mpc_"):
            return mp.make_mpc(z._mpc_)
        if hasattr(z, "_mpf_"):
            return mp.make_mpf(z._mpf_)
        return mp.mpmathify(z)

    def pow10(self, k: int):
        """10**k as an mpf of this context (tolerance construction)."""
        return self._mp.mpf(10) ** k

    def escalated(self, factor: int) -> "PrecisionCtx":
        """The shared context with digits multiplied by ``factor``."""
        return shared_ctx(self.digits * factor)


@lru_cache(maxsize=32)
def shared_ctx(digits: int) -> PrecisionCtx:
    """One PrecisionCtx per digit count, shared by the solver's internal callers.

    Every value computed in a context keeps that context's MPContext alive,
    so a fresh context per escalation or per continuation would make held
    results pin one each.  Sharing is safe because nothing changes a
    context's precision after construction; contexts that callers build
    with ``PrecisionCtx(...)`` stay their own.
    """
    return PrecisionCtx(digits=digits)


def require_finite(z, ctx: PrecisionCtx):
    """Reject NaN/infinite results: a wrong root is worse than a failure."""
    mp = ctx.mp
    if hasattr(z, "_mpc_"):
        if not mp.isfinite(z):
            raise OverflowEscape(f"non-finite complex result: {z}")
    elif not mp.isfinite(z):
        raise OverflowEscape(f"non-finite result: {z}")
    return z


def sqrt_principal(z, ctx: PrecisionCtx):
    """Principal square root: arg(result) in (-pi/2, pi/2], cut on (-inf, 0)."""
    mp = ctx.mp
    return require_finite(mp.sqrt(ctx.convert(z)), ctx)


def pow_rational(z, num: int, den: int, ctx: PrecisionCtx):
    """z**(num/den) through the principal logarithm.

    Computed as exp((log(z) * num) / den) so the rational exponent is applied
    exactly; num/den is reduced first, and an exponent of 1 returns z
    unchanged.  0**positive is 0; 0**0 is 1; 0**negative raises.
    """
    if den <= 0:
        raise ValueError("den must be a positive integer")
    mp = ctx.mp
    z = ctx.convert(z)
    if z == 0:
        if num < 0:
            raise ZeroToNegativePower(f"0 ** ({num}/{den})")
        return mp.mpc(1) if num == 0 else mp.mpc(0)
    shared = _gcd(abs(num), den)
    if shared > 1:
        num //= shared
        den //= shared
    if num == 0:
        return mp.mpc(1)
    if num == 1 and den == 1:
        return mp.mpc(z)
    return require_finite(mp.exp(mp.log(z) * num / den), ctx)


# ---------------------------------------------------------------------------
# Decimal text format: RE [('+'|'-') IM 'i'], both decimal literals with
# optional exponent.  This is the bit-exact interchange grammar used by the
# CLI and JSON reports.
# ---------------------------------------------------------------------------

_NUM = _re.compile(r"(\d+(?:\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _scan_number(text: str, pos: int):
    m = _NUM.match(text, pos)
    if not m:
        raise ParseError(f"expected decimal literal in {text!r}", pos)
    return m.group(0), m.end()


def parse_complex(text: str, ctx: PrecisionCtx):
    """Parse a complex literal like '-200i', '12.34910' or '0.5-0.25e-3i'.

    Raises ParseError with the byte offset of the first offending character.
    """
    raw = text
    text = text.strip().replace("−", "-")
    if not text:
        raise ParseError(f"empty complex literal {raw!r}", 0)
    mp = ctx.mp

    pos = 0
    sign1 = 1
    if text[pos] in "+-":
        sign1 = -1 if text[pos] == "-" else 1
        pos += 1
    lit1, pos = _scan_number(text, pos)

    if pos == len(text):
        return mp.mpc(sign1 * mp.mpf(lit1), 0)

    if text[pos] in "iI":
        if pos + 1 != len(text):
            raise ParseError(f"trailing characters in {raw!r}", pos + 1)
        return mp.mpc(0, sign1 * mp.mpf(lit1))

    if text[pos] not in "+-":
        raise ParseError(f"expected '+', '-' or 'i' in {raw!r}", pos)
    sign2 = -1 if text[pos] == "-" else 1
    pos += 1
    lit2, pos = _scan_number(text, pos)
    if pos == len(text) or text[pos] not in "iI":
        raise ParseError(f"expected trailing 'i' in {raw!r}", pos)
    if pos + 1 != len(text):
        raise ParseError(f"trailing characters in {raw!r}", pos + 1)
    return mp.mpc(sign1 * mp.mpf(lit1), sign2 * mp.mpf(lit2))


def _format_real(x, digits: int) -> str:
    if x == 0:
        return "0"
    s = libmp.to_str(x._mpf_, digits)
    return s


def format_complex(z, digits: int) -> str:
    """Round-to-nearest decimal rendering of z with ``digits`` significant digits."""
    re_part = z.real if hasattr(z, "_mpc_") else z
    im_part = z.imag if hasattr(z, "_mpc_") else z * 0
    if im_part == 0:
        return _format_real(re_part, digits)
    im_s = _format_real(abs(im_part), digits)
    sign = "-" if im_part < 0 else "+"
    if re_part == 0:
        return ("-" if im_part < 0 else "") + im_s + "i"
    return _format_real(re_part, digits) + sign + im_s + "i"
