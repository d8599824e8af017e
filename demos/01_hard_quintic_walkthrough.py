"""Walk through the full closed-form solve of a hard 200-digit quintic.

The example is x^5 - 200i x^4 + 1340 x^3 + 12.34910 x^2 - 239.18200 x
+ 339.2181700 = 0, solved to 200 decimal digits.  Every intermediate stage
is printed: the substitution parameters, the Bring-Jerrard normal form, the
hypergeometric root, the four quartic candidates and the winner, and the
final five roots with their residuals and inclusion radii (error bounds).
"""

import time

from quintic import MonicQuintic, PrecisionCtx, solve_quintic

ctx = PrecisionCtx(digits=200)
quintic = MonicQuintic.make(ctx, "-200i", "1340", "12.34910", "-239.18200", "339.2181700")

print("solving  x^5 - 200i x^4 + 1340 x^3 + 12.34910 x^2 - 239.18200 x + 339.2181700 = 0")
print(f"working precision: {ctx.digits} digits ({ctx.working_dps} carried internally)\n")

start = time.perf_counter()
report = solve_quintic(quintic, ctx)
elapsed = time.perf_counter() - start

mp = report.reduction.ctx.mp
params = report.reduction.params

print("-- quartic substitution x^4 + d x^3 + c x^2 + b x + a + y, solved parameters --")
for name in ("alpha", "eta", "xi", "d", "b", "c", "a"):
    print(f"  {name:>5} = {mp.nstr(getattr(params, name), 25)}")
print("  vanishing residuals of the y^4, y^3, y^2 coefficients:",
      [mp.nstr(v, 3) for v in params.vanish_residuals])

print("\n-- Bring-Jerrard normal form y^5 + A y + B = 0 --")
print("  A =", mp.nstr(report.reduction.A, 25))
print("  B =", mp.nstr(report.reduction.B, 25))
print("  s =", mp.nstr(report.reduction.s, 40))

print("\n-- Bring root (z^5 - z - s = 0, branch through z(0) = 0) --")
print(f"  strategy: {report.bring.strategy} ({report.bring.terms_or_steps} Taylor steps)")
print("  z =", mp.nstr(report.bring.z, 40))
print("  |z^5 - z - s| =", mp.nstr(report.bring.residual, 3))

print("\n-- quartic candidate selection --")
print("  |quintic(y_k)| for the four Ferrari candidates:")
for k, res in enumerate(report.candidate_residuals, start=1):
    marker = "  <- selected as r1" if res == min(report.candidate_residuals) else ""
    print(f"    y{k}: {mp.nstr(res, 6)}{marker}")

print("\n-- the five roots --")
for k, (root, res, radius) in enumerate(zip(report.roots, report.residuals, report.radii), start=1):
    print(f"  r{k} = {mp.nstr(root, 40)}")
    print(f"       residual {mp.nstr(res, 3)}   inclusion radius {mp.nstr(radius, 3)}")

print(f"\nsolved and verified in {elapsed:.2f}s "
      f"(precision actually used: {report.precision_used} digits)")
