import random

import pytest
from hypothesis import given, settings, strategies as st

from quintic.errors import ParseError, ZeroToNegativePower
from quintic.mpfield import (
    PrecisionCtx,
    format_complex,
    parse_complex,
    pow_rational,
    sqrt_principal,
)


def test_ctx_invariants():
    with pytest.raises(ValueError):
        PrecisionCtx(digits=29)
    ctx = PrecisionCtx(digits=50)
    assert ctx.working_dps == 70
    assert ctx.mp.dps == 70



def test_escalated_contexts_are_shared():
    # a returned value pins the context it was computed in, so escalation
    # must not build a fresh context per call
    ctx = PrecisionCtx(digits=50)
    up = ctx.escalated(2)
    assert up is PrecisionCtx(digits=50).escalated(2)
    assert up.digits == 100
    assert up.mp.dps == 120
    assert up is not ctx.escalated(4)
    assert PrecisionCtx(digits=100) is not PrecisionCtx(digits=100)

def test_sqrt_trivial_examples(ctx50):
    assert sqrt_principal(ctx50.mpc(4), ctx50) == 2
    assert sqrt_principal(ctx50.mpc(-1), ctx50) == ctx50.mpc(0, 1)
    z = sqrt_principal(ctx50.mpc(3, 4), ctx50)
    assert abs(z - ctx50.mpc(2, 1)) < ctx50.pow10(-48)
    assert sqrt_principal(ctx50.mpc(0), ctx50) == 0


def test_sqrt_branch_cut(ctx50):
    # On the cut the principal branch lands on the positive imaginary axis.
    w = sqrt_principal(ctx50.mpc(-9), ctx50)
    assert w.imag > 0 and abs(w - ctx50.mpc(0, 3)) < ctx50.pow10(-48)


@pytest.mark.parametrize("digits", [50, 100, 200])
def test_sqrt_square_roundtrip_random(digits):
    ctx = PrecisionCtx(digits=digits)
    rng = random.Random(digits)
    for _ in range(1000):
        z = ctx.mpc(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        w = sqrt_principal(z, ctx)
        assert abs(w * w - z) <= ctx.pow10(2 - digits) * abs(z)


def test_pow_rational_examples(ctx50):
    assert abs(pow_rational(ctx50.mpc(16), 1, 4, ctx50) - 2) < ctx50.pow10(-48)
    w = pow_rational(ctx50.mpc(-4), 1, 4, ctx50)
    assert abs(w - ctx50.mpc(1, 1)) < ctx50.pow10(-48)


def test_pow_rational_5_4_of_minus_4(ctx50):
    # (-4)^(5/4) should equal (1+i)^5 = -4-4i; cross-check against direct
    # multiplication of the quarter root.
    w = pow_rational(ctx50.mpc(-4), 5, 4, ctx50)
    q = pow_rational(ctx50.mpc(-4), 1, 4, ctx50)
    direct = q**5
    assert abs(w - ctx50.mpc(-4, -4)) < ctx50.pow10(-47)
    assert abs(w - direct) < ctx50.pow10(-47)


def test_pow_rational_identity_and_zero(ctx50):
    z = ctx50.mpc("1.25", "-3.5")
    assert pow_rational(z, 1, 1, ctx50) == z
    assert pow_rational(ctx50.mpc(0), 3, 2, ctx50) == 0
    assert pow_rational(ctx50.mpc(0), 0, 1, ctx50) == 1
    with pytest.raises(ZeroToNegativePower):
        pow_rational(ctx50.mpc(0), -1, 4, ctx50)


def test_pow_sqrt_branch_consistency(ctx100):
    rng = random.Random(7)
    for _ in range(200):
        z = ctx100.mpc(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if z.real < 0 and abs(z.imag) < 1e-6:
            continue  # stay off the cut
        a = pow_rational(z, 2, 4, ctx100)
        b = sqrt_principal(z, ctx100)
        assert abs(a - b) <= ctx100.pow10(2 - 100) * max(1, abs(b))


def test_parse_examples(ctx50):
    z = parse_complex("-200i", ctx50)
    assert z.real == 0 and z.imag == -200
    z = parse_complex("12.34910", ctx50)
    assert z.imag == 0 and abs(z.real - ctx50.mpf("12.34910")) == 0
    z = parse_complex("1+1i", ctx50)
    assert z == ctx50.mpc(1, 1)
    z = parse_complex("0.5-0.25e-3i", ctx50)
    assert z.real == ctx50.mpf("0.5") and z.imag == ctx50.mpf("-0.00025")


@pytest.mark.parametrize(
    "bad,offset",
    [
        ("", 0),
        ("bogus", 0),
        ("1+", 2),
        ("1+i", 2),
        ("1+2", 3),
        ("1+2j", 3),
        ("1 + 2i", 1),
        ("2i+1", 2),
    ],
)
def test_parse_errors_carry_offset(bad, offset, ctx50):
    with pytest.raises(ParseError) as exc:
        parse_complex(bad, ctx50)
    assert exc.value.offset == offset


def test_format_basic(ctx50):
    assert format_complex(ctx50.mpc(0), 10) == "0"
    assert format_complex(ctx50.mpc(0, -200), 10) == "-200.0i"
    s = format_complex(ctx50.mpc(1, 1), 10)
    assert s == "1.0+1.0i"


@given(
    re=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    im=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(re, im):
    ctx = PrecisionCtx(digits=50)
    z = ctx.mpc(re, im)
    text = format_complex(z, 50)
    back = parse_complex(text, ctx)
    # within 1 ulp at the emitted digit count
    assert abs(back - z) <= ctx.pow10(-48) * max(1, abs(z))


def test_roundtrip_tiny_and_huge(ctx50):
    for s in ["1e-300", "9.5e255", "-3.25e-40+7e33i"]:
        z = parse_complex(s, ctx50)
        assert abs(parse_complex(format_complex(z, 50), ctx50) - z) <= ctx50.pow10(-47) * abs(z)


def test_pow_rational_rejects_bad_denominator(ctx50):
    with pytest.raises(ValueError):
        pow_rational(ctx50.mpc(2), 1, 0, ctx50)


def test_non_finite_results_rejected(ctx50):
    from quintic.errors import OverflowEscape
    from quintic.mpfield import require_finite

    with pytest.raises(OverflowEscape):
        require_finite(ctx50.mp.mpf("nan"), ctx50)
    with pytest.raises(OverflowEscape):
        require_finite(ctx50.mp.mpc("inf", 0), ctx50)
