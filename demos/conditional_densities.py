"""Resolve the output photon classes by measurement outcome.

The joint density P_q(n, beta) splits the outcome plane by what arrives at
the receiver: at small |beta| photon loss dominates the error budget, at
large |beta| photon gain takes over, and the two curves cross at a radius
the script locates. At beta = 0 both error terms vanish identically: a
measurement landing exactly at the origin teleports the photon faithfully
(up to the q-dependent success weight).

Run:  python3 demos/conditional_densities.py [--plot]
"""

import sys

import numpy as np

from cvteleport.statistics import conditional_beta_density, crossing_radius
from cvteleport.teleport import single_photon_beta_density

Q = 0.5


def main() -> None:
    radii = np.arange(0.0, 3.01, 0.25)
    print(f"conditional outcome densities at q = {Q}")
    print(f"{'|beta|':>7} {'total':>10} {'P(1)':>10} {'P(0)':>10} {'P(>=2)':>10}")
    for r in radii:
        beta = complex(r)
        p0, p1, p_ge2 = conditional_beta_density(Q, beta)
        row = (single_photon_beta_density(Q, beta), p1, p0, p_ge2)
        print(f"{r:>7.2f} " + " ".join(f"{v:>10.6f}" for v in row))

    r_star = crossing_radius(Q)
    print(f"\nloss and gain cross at |beta| = {r_star:.6f}")
    print("  inside the ring, losing the photon is the likelier error;")
    print("  outside, the displacement correction over-fills the mode instead")

    if "--plot" in sys.argv[1:]:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; skipping the plot")
            return
        dense = np.linspace(0.0, 3.0, 400)
        p0, p1, p_ge2 = zip(*(conditional_beta_density(Q, complex(r)) for r in dense))
        fig, ax = plt.subplots(figsize=(5.5, 4))
        for label, series in (("P(1, beta)", p1), ("P(0, beta)", p0), ("P(>=2, beta)", p_ge2)):
            ax.plot(dense, series, label=label)
        ax.axvline(r_star, color="gray", linestyle=":", label="loss/gain crossing")
        ax.set_xlabel("|beta|")
        ax.set_ylabel("density")
        ax.set_title(f"conditional densities, q = {Q}")
        ax.legend()
        fig.tight_layout()
        fig.savefig("conditional_densities.png", dpi=150)
        print("wrote conditional_densities.png")


if __name__ == "__main__":
    main()
