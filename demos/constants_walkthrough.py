"""Walk through the certified constants pipeline at the smallest factor.

Derives c, the per-square whitespace guarantee delta, and the index
thresholds N0 <= N1 <= N, once with the closed-form N0 and once with the
sharper integral variant. The floor certificates record that each floor
was certified: N0 and N from an integer bracket [lo, hi] / 2^p which, at
192 bits for this factor and doubled until it does not straddle an
integer, lies between two consecutive integers, and N1 in exact integer
arithmetic.
"""

from moserpack import NOVOTNY, build_report, report_to_dict

for use_integral in (False, True):
    rep = build_report(NOVOTNY, refined=True, use_integral_n0=use_integral)
    label = "integral N0" if use_integral else "closed-form N0"
    print(f"--- {label} ---")
    print(f"F             = {rep.F}")
    print(f"c             = {rep.c}")
    print(f"delta_simple  = {rep.delta_simple}")
    print(f"delta_refined = {rep.delta_refined}")
    print(f"N0_simple     = {rep.N0_simple:>12,}")
    print(f"N0_integral   = {rep.N0_integral:>12,}")
    print(f"N1            = {rep.N1:>12,}")
    print(f"N             = {rep.N:>12,}")
    certified = all(rep.floor_certificates.values())
    print(f"floor certificates: {sorted(rep.floor_certificates)} all ok={certified}")
    print()

# the dict form is what the CLI emits as JSON
d = report_to_dict(build_report(1.37))
print("report_to_dict keys:", ", ".join(sorted(d)))
