"""Degenerate quintic families and how the pipeline absorbs them.

The generic reduction divides by quantities that vanish on thin families:
2 m^2 - 5 n = 0 kills the leading coefficient of the alpha equation (and no
pre-shift can fix it, the quantity is shift invariant); shifted pure fifth
powers admit no quartic substitution at all; repeated roots collapse the
whole transform.  Each family has a dedicated, verified path.
"""

from quintic import MonicQuintic, PrecisionCtx, aberth_solve, match_rootsets, solve_quintic

ctx = PrecisionCtx(digits=50)
mp = ctx.mp


def show(label, coeffs):
    quintic = MonicQuintic.make(ctx, *coeffs)
    try:
        report = solve_quintic(quintic, ctx)
    except Exception as exc:
        print(f"{label:<28} -> {type(exc).__name__}: {exc}")
        return
    iterated = aberth_solve(quintic.as_poly(ctx), ctx)
    dist = match_rootsets(report.roots, iterated).max_distance
    shift = report.reduction.shift
    shift_txt = mp.nstr(shift, 5) if shift != 0 else "none"
    print(f"{label:<28} strategy={report.bring.strategy:<16} shift={shift_txt:<12} "
          f"max residual={mp.nstr(max(report.residuals), 3)} oracle distance={mp.nstr(dist, 3)}")


print("family                       outcome")
print("-" * 100)

# pure radicals: x^5 = constant, possibly shifted
show("x^5 - 1", (0, 0, 0, 0, -1))
show("(x + 2)^5 + 1", (10, 40, 80, 80, 33))

# the shift-invariant degeneracy 2 m^2 = 5 n
show("2m^2 = 5n", (5, 10, 3, -2, 7))

# the historical special cases: x^4 and x^3 coefficients absent
show("m = 0", (0, 1340, "12.3491", "-239.182", "339.21817"))
show("m = n = 0 (Bring's case)", (0, 0, "2.5", "-1.25", 3))
show("x^5 - x", (0, 0, 0, -1, 0))

# repeated roots: outside the contract, still absorbed when the transform
# collapses to a pure radical; the oracle itself loses accuracy here, so the
# distance column is the oracle's error, not ours
show("x^3 (x+1)^2 (triple+double)", (2, 1, 0, 0, 0))

print("\nresidual check beats oracle distance for the repeated-root row: at a")
print("triple root an iterative finder keeps only a third of the working digits,")
print("while the collapsed radical path stays fully accurate.")
