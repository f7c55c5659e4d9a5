"""Recompute the reference angular integrals and the checksum combination.

The focal-value constants of the 2:3 analysis are periodic integrals over
the weighted angular variable.  The package ships frozen high-accuracy
values; this script recomputes each one live with two independent
quadrature schemes (spectral trapezoid and adaptive Gauss panels), compares
against the frozen copy, and evaluates the integer-weighted combination
575803*I_A - 11848200*I_B used as an end-to-end checksum of the whole
quadrature layer.
"""

from qhfocus.casestudy import compute_reference_constants, reference_constants, verify_322

frozen = reference_constants()
live = compute_reference_constants(tol=1e-12)

print(f"{'constant':<8} {'frozen':>22} {'recomputed':>22} {'abs diff':>10}")
for name in ("I2", "I4", "IA", "IB"):
    f, l = frozen[name], live[name]
    print(f"{name:<8} {f:>22.16f} {l:>22.16f} {abs(f - l):>10.1e}")
print()

report = verify_322(tol=1e-12)
print(f"combination 575803*IA - 11848200*IB = {report.combination_value:.7f}")
print(f"reading used: {report.reading_used}")
print(f"alternative reading (squared prefactors) would give {report.value_as_printed:.5e}")
print(f"quadrature error estimates: IA {report.ia.error_estimate:.1e}, IB {report.ib.error_estimate:.1e}")
print(f"relative mismatch against the printed digits: {report.relative_mismatch:.2e}")
print(f"checks out: {report.ok}")
