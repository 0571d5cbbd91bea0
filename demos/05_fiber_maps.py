"""Equivariant fiber maps: three solution branches and the adjudicator.

An equivariant map from a rotational surface to the unit sphere is
(theta, z) -> (theta, phi(z)).  Holomorphy reduces to a first-order ODE;
the package implements two closed-form families plus the quadrature
solution phi = tanh(l(z) + c) built from the isothermal coordinate
l(z) = integral sqrt(rho'^2 + 1)/rho dz, and a first-principles
conformality verifier (singular values of the differential in the
embedding metrics) decides which is right.  The cylinder discriminates:
the flat-meridian closed form degenerates to a constant there.
"""

import numpy as np

from twistorcheck import fibermap as fm

for pname in ("sphere", "cylinder", "cosh"):
    prof = fm.get_profile(pname)
    print(f"=== profile: {pname}")
    for branch in ("quadrature", "flat_meridian_closed_form", "alternate_closed_form"):
        try:
            emap = fm.solve_phi(prof, c=0.0 if branch != "flat_meridian_closed_form" else -0.5,
                                branch=branch)
        except Exception as exc:
            print(f"  {branch:24s} -> {type(exc).__name__}: {exc}")
            continue
        rep = fm.conformality_check(emap, sample_count=80)
        tag = "degenerate-constant" if rep.degenerate else (
            f"anisotropy={rep.max_anisotropy:.2e} orientation={rep.orientation:+d}")
        print(f"  {branch:24s} -> {tag}")
    print()

# The sphere's alternate closed form at c = 0 is the identity map.
sph = fm.get_profile("sphere")
alt = fm.solve_phi(sph, c=0.0, branch="alternate_closed_form")
zs = np.linspace(alt.domain[0] + 0.01, alt.domain[1] - 0.01, 7)
print("sphere alternate branch, c=0:")
print("  z   :", np.round(zs, 4))
print("  phi :", np.round(alt.phi_values(zs), 4))

# Quadrature solutions compose by tanh addition in the constant.
m1 = fm.solve_phi(sph, c=0.3, branch="quadrature")
m2 = fm.solve_phi(sph, c=1.0, branch="quadrature")
zs = np.linspace(-0.8, 0.8, 9)
p1, t = m1.phi_values(zs), np.tanh(0.7)
mobius = (p1 + t) / (1 + p1 * t)
print("\nMobius composition residual:", np.max(np.abs(m2.phi_values(zs) - mobius)))
