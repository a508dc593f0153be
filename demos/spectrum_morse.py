"""Linearization spectra along the branches and the n-fold Morse index.

At a homogeneous equilibrium the eigenvalues are explicit,
mu_k = +-2 sqrt(6 lambda) - (2 pi k)^2.  Along the n-th branch the
Galerkin spectrum deforms continuously, keeps exactly n positive
eigenvalues, and near onset follows the quadratic perturbation model to
cubic accuracy in h.  The script prints both comparisons.
"""

import numpy as np

from eternal_kit import elliptic, spectrum


def main():
    lam = 100.0
    exact = spectrum.homogeneous_spectrum(lam, count=5)
    gal = spectrum.eigen(elliptic.CosineSeries([np.sqrt(lam / 6.0)]), N=48)
    print(f"homogeneous state at lambda = {lam}:")
    for k in range(5):
        print(f"  mu_{k}: exact {exact[k]:+.10f}   "
              f"galerkin {gal.eigenvalues[k]:+.10f}   "
              f"diff {abs(exact[k] - gal.eigenvalues[k]):.2e}")

    print("\nMorse index along the branches (h = 0.02):")
    for n in range(1, 7):
        rep = spectrum.eigen(elliptic.branch_point(n, 0.02).profile)
        print(f"  n={n}: positive eigenvalues = {rep.morse_index}")

    print("\ndefect against the quadratic model, mode k of branch n:")
    hs = np.array([0.02, 0.04, 0.08])
    for n, k in ((1, 0), (2, 1), (3, 0)):
        defects = []
        for h in hs:
            rep = spectrum.eigen(elliptic.branch_point(n, h).profile)
            defects.append(abs(rep.eigenvalues[k] - spectrum.perturbation_mu(n, k, h)))
        slope = np.polyfit(np.log(hs), np.log(defects), 1)[0]
        txt = "  ".join(f"{d:.3e}" for d in defects)
        print(f"  (n={n}, k={k}): defects {txt}   log-log slope {slope:.2f}")


if __name__ == "__main__":
    main()
