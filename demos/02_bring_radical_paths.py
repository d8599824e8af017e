"""The Bring radical: one function, three evaluation regimes.

z(s) solves z^5 - z - s = 0 and continues the branch z ~ -s near s = 0.
Inside |3125/256 s^4| <= 0.8 a 4F3 hypergeometric series computes it
directly; outside, the same function element is continued along a path in
the s-plane, from the series' value where the path leaves the disk; near the
four branch points (3125 s^4 = 256) paths detour and endpoints switch to the
double-cover coordinate sqrt(s - s*).
"""

from quintic import PrecisionCtx, solve_bring
from quintic.bring import hyper4f3

ctx = PrecisionCtx(digits=60)
mp = ctx.mp

print("branch points sit at |s| =", mp.nstr(mp.root(mp.mpf(256) / 3125, 4), 12),
      "and angles 0, 90, 180, 270 degrees\n")

print("-- series regime: s in the hypergeometric disk --")
for s_text in ("0.1", "0.3+0.2i", "-0.25i"):
    s = ctx.mpc(s_text)
    sol = solve_bring(s, ctx)
    x = mp.mpf(3125) / 256 * s**4
    print(f"  s = {s_text:<10} |x| = {mp.nstr(abs(x), 4):<10} strategy = {sol.strategy}")
    print(f"     z = {mp.nstr(sol.z, 25)}   residual {mp.nstr(sol.residual, 3)}")

print("\n-- both regimes agree where they overlap --")
s = ctx.mpc("0.31", "-0.29")
z_series = solve_bring(s, ctx, strategy="series").z
z_ode = solve_bring(s, ctx, strategy="ode").z
print("  series:      ", mp.nstr(z_series, 30))
print("  continuation:", mp.nstr(z_ode, 30))
print("  |difference| =", mp.nstr(abs(z_series - z_ode), 3))

print("\n-- continuation regime: far outside the disk --")
for s_text in ("2-3i", "-40", "1e6+2e5i", "1e12i"):
    s = ctx.mpc(s_text)
    sol = solve_bring(s, ctx)
    print(f"  s = {s_text:<10} steps = {sol.terms_or_steps:<4} "
          f"z = {mp.nstr(sol.z, 20)}   residual {mp.nstr(sol.residual, 3)}")

print("\n-- creeping up on a branch point (double root of the Bring form) --")
bp = mp.root(mp.mpf(256) / 3125, 4)
for eps in ("0.01", "1e-6", "1e-12"):
    s = bp + ctx.mpf(eps)
    sol = solve_bring(s, ctx)
    print(f"  s = s* + {eps:<6} z = {mp.nstr(sol.z, 20)}   residual {mp.nstr(sol.residual, 3)}")
print("  (z approaches -5^(-1/4) =", mp.nstr(-mp.root(5, 4) ** -1, 12), "as s -> s*)")

print("\n-- the small-s expansion z = -s - s^5 - 5 s^9 - ... --")
s = ctx.mpf("0.001")
z = solve_bring(s, ctx).z
print("  s = 0.001:   z + s         =", mp.nstr(z + s, 6))
print("               z + s + s^5   =", mp.nstr(z + s + s**5, 6))
print("               ... + 5 s^9   =", mp.nstr(z + s + s**5 + 5 * s**9, 6))

print("\n-- the series itself --")
print("  4F3 at x = 0.5:", mp.nstr(hyper4f3(ctx.mpf("0.5"), ctx), 30))
