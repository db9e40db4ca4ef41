"""Walk through the conditional transfer operator on a truncated Fock space.

The teleportation of a state through a finitely squeezed resource, followed
by a joint quadrature measurement with outcome beta and a displacement of
the receiver mode, collapses to a single non-unitary operator T_q(beta)
acting on the input. This script builds that operator, checks its two
structural properties (hermitian everywhere, diagonal at beta = 0), and
compares the general matrix route against the closed-form single-photon
output.

Run:  python3 demos/transfer_operator_basics.py
"""

import numpy as np

from cvteleport.fock import number_state
from cvteleport.teleport import (
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)

N_MAX = 32
Q = 0.5


def main() -> None:
    print(f"transfer operator at q = {Q}, n_max = {N_MAX}")

    op0 = transfer_operator(Q, 0j, N_MAX)
    diag = np.diag(op0).real
    print("\nbeta = 0: exactly diagonal, entries sqrt((1-q^2)/pi) q^n")
    print("  first entries:", np.round(diag[:5], 6))
    off_diagonal = np.count_nonzero(op0 - np.diag(np.diag(op0)))
    print("  nonzero off-diagonal entries:", off_diagonal)

    print("\nhermiticity across outcomes:")
    for beta in (0.5 + 0j, 1j, 1.2 - 0.7j):
        op = transfer_operator(Q, beta, N_MAX)
        defect = np.max(np.abs(op - op.conj().T))
        print(f"  beta = {beta}: max |T - T^dag| = {defect:.3e}")

    print("\nsingle photon through the operator vs the closed form:")
    one = number_state(1, N_MAX)
    for beta in (0j, 0.8 + 0j, 0.4 + 1.1j):
        via_op = teleport_output(one, Q, beta)
        closed = single_photon_output_closed_form(Q, beta, N_MAX)
        gap = np.max(np.abs(via_op.amplitudes - closed.amplitudes))
        print(
            f"  beta = {beta}: density {via_op.norm_sq():.6f}, "
            f"max amplitude gap {gap:.3e}"
        )

    print("\nthe output at beta = 0 keeps the photon but rescales it by q:")
    out = teleport_output(one, Q, 0j)
    print("  amplitudes 0..3:", np.round(out.amplitudes[:4].real, 6))


if __name__ == "__main__":
    main()
