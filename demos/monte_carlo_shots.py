"""Simulate teleportation shot by shot with reproducible randomness.

Each shot draws a measurement outcome from the exact radial law by CDF
inversion, then draws the received photon number from the conditional
output state. Every shot owns a counter-derived random stream, so a re-run
with the same seed is bit-identical, however the shot list is chunked.
A run returns columns: ``result.betas`` and ``result.photon_counts`` hold
shot i at index i, and records are built only when asked for.
The script runs a seeded batch, compares the category frequencies against
the closed-form probabilities, and demonstrates the determinism.

Run:  python3 demos/monte_carlo_shots.py
"""

import numpy as np

from cvteleport.sampler import SamplerConfig, run_shots
from cvteleport.statistics import loss_gain_split

SEED = 12345
SHOTS = 50_000
Q = 0.5


def main() -> None:
    config = SamplerConfig(master_seed=SEED, shots=SHOTS, q=Q)
    result = run_shots(config)

    expected = dict(zip(("loss", "success", "gain"), loss_gain_split(Q)))
    print(f"{SHOTS} shots at q = {Q}, master seed {SEED}")
    print(f"{'class':>9} {'observed':>10} {'expected':>10} {'deviation':>10}")
    freq = result.frequencies()
    for name, p in expected.items():
        sigma = np.sqrt(p * (1.0 - p) / SHOTS)
        pull = (freq[name] - p) / sigma
        print(f"{name:>9} {freq[name]:>10.5f} {p:>10.5f} {pull:>9.2f}s")

    t_mean = np.mean(np.abs(result.betas) ** 2)
    a = 1.0 - Q * Q
    print(f"\nmean |beta|^2: {t_mean:.4f} (exact {1 + 1 / a:.4f})")
    print(f"overflow shots (count pushed past the cutoff): {result.overflow}")

    identical = run_shots(config) == result
    print(f"\nre-run with the same seed is bit-identical: {identical}")

    first = result.records[0]
    print(
        f"first shot: beta = {first.beta:.4f}, photons = {first.photon_count}, "
        f"class = {first.category}, stream = seed {first.seed_lineage[0]} / "
        f"shot {first.seed_lineage[1]}"
    )


if __name__ == "__main__":
    main()
