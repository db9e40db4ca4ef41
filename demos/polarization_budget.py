"""Teleport a polarization qubit carried by two modes.

Encoding a photon's polarization across an H and a V mode and teleporting
both channels independently yields four outcome classes: faithful transfer,
a polarization flip (the photon vanishes from H while one appears in V),
total photon loss, and multi-photon contamination. All four have closed
forms that factorize over the channels; the script checks them against the
two-channel quadrature integration and sweeps the budget over q to find
where faithful transfer starts to dominate.

Run:  python3 demos/polarization_budget.py
"""

import numpy as np

from cvteleport.polarization import polarization_budget, polarization_budget_numerical


def main() -> None:
    q_demo = 0.5
    closed = polarization_budget(q_demo)
    numeric = polarization_budget_numerical(q_demo, 48)
    print(f"outcome budget at q = {q_demo} (closed form | quadrature):")
    names = ("transfer", "flip", "zero photons", "multi photon")
    for name, a, b in zip(names, closed, numeric):
        print(f"  {name:>13}: {a:.8f} | {b:.8f}  (gap {abs(a - b):.2e})")
    print(f"  budget total: {sum(closed):.12f}")

    print("\nsweep: probability of faithful polarization transfer")
    print(f"{'q':>5} {'transfer':>9} {'flip':>9} {'zero':>9} {'multi':>9}")
    for q in np.arange(0.0, 1.0, 0.1):
        b = polarization_budget(float(q))
        print(
            f"{q:>5.1f} {b.p_trans:>9.5f} {b.p_flip:>9.5f} "
            f"{b.p_zero:>9.5f} {b.p_multi:>9.5f}"
        )

    for threshold, label in ((0.5, "1/2"), (2.0 / 3.0, "2/3")):
        qs = np.arange(0.0, 0.999, 0.001)
        crossing = next(q for q in qs if polarization_budget(float(q)).p_trans > threshold)
        print(f"transfer probability exceeds {label} from q = {crossing:.3f}")

    print("\nthe flip is always the rarest failure: it needs the photon to")
    print("vanish from one channel exactly as one is created in the other")


if __name__ == "__main__":
    main()
