"""Print the literals of ``test_reference_values.py`` from exact formulas.

The values come from mpmath at 40 significant digits and share no code with
the package:

- D(alpha)[m, n] from the finite normal-order sum
  e^{-|alpha|^2/2} sum_{k <= min(m, n)} sqrt(m! n!) alpha^{m-k} (-conj(alpha))^{n-k}
  / (k! (m-k)! (n-k)!) of D(alpha) = e^{-|alpha|^2/2} e^{alpha a^dag} e^{-conj(alpha) a};
- T_q(beta)[n, m] from the finite normal-order sum
  T_q(beta) = sqrt((1-q^2)/pi) e^{-(1-q)|beta|^2} e^{c a^dag} q^{a^dag a} e^{conj(c) a},
  c = (1-q) beta (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), whose
  element is a sum over k <= min(n, m) and has no cutoff: n, m <= 3 at
  |beta| <= 2.1 and q <= 0.5, and n, m <= 8 at |beta| = 3 and 8, two phases
  each, and q = 0.5 and 0.97, where a cutoff-8 block of the displacement form
  drops most of its middle sum;
- the photon-transfer matrix M[n, m] from unit-gain teleportation as a pure
  loss of transmissivity eta = 1/G followed by an amplifier of gain
  G = 2/(1+q) (Garcia-Patron et al., PRL 108, 110505 (2012));
- the conditional densities of the |1> input at |beta|: levels 0 and 1 as
  |<n|T_q(beta)|1>|^2 from the sum above, and the gain as the total density
  minus both, the total being <1|T_q(beta)^2|1> through
  T_q(beta)^2 = ((1-q^2)/pi) / sqrt((1-q^4)/pi) T_{q^2}(beta), so no
  number-law closed form of the package enters;
- the outcome density p(beta) = <psi|T_q(beta)^2|psi> of |4> and of
  (|0>+|1>)/sqrt(2), through the same T_{q^2} identity, as a double sum of
  normal-order entries over the levels of psi.

Needs mpmath, which the package does not depend on (it is in the ``test``
extra). Run it by hand and paste its output over the literals:

    python tests/make_reference_values.py

With ``--check`` it prints nothing on success and exits 1 when a literal of
``test_reference_values.py`` differs from what it would print.
"""

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

QS = ("0.0", "0.3", "0.5")
BETAS = ((0.3, -0.2), (-1.2, 0.7), (2.0, 0.5))
SIZE = 4
# q and beta of the n, m <= 8 transfer blocks, as the floats the tests pass
DEEP_QS = ("0.5", "0.97")
DEEP_BETAS = ((3.0, 0.0), (-1.8, 2.4), (4.8, -6.4), (-8.0, 0.0))
DEEP_SIZE = 9
# (q, |beta|) of the conditional densities, as the floats the tests pass
CONDITIONAL_QS = (0.5, 0.9)
CONDITIONAL_RADII = (0.02, 0.5, 2.0, 6.0)
# inputs, q and beta of the outcome densities; amplitudes as exact mpmath numbers
DENSITY_INPUTS = {
    "number4": {4: mp.mpf(1)},
    "vacuum_plus_one": {0: 1 / mp.sqrt(2), 1: 1 / mp.sqrt(2)},
}
DENSITY_QS = (0.5, 0.9)
DENSITY_BETAS = ((0.3, -0.2), (-1.2, 0.7), (2.5, 1.5))
TESTS = Path(__file__).with_name("test_reference_values.py")


def displacement_entry(alpha, m: int, n: int):
    return mp.exp(-abs(alpha) ** 2 / 2) * mp.fsum(
        mp.sqrt(mp.factorial(m) * mp.factorial(n))
        * alpha ** (m - k) * (-mp.conj(alpha)) ** (n - k)
        / (mp.factorial(k) * mp.factorial(m - k) * mp.factorial(n - k))
        for k in range(min(m, n) + 1)
    )


def print_block(entry) -> None:
    for n in range(SIZE):
        row = [repr(complex(entry(n, m))) for m in range(SIZE)]
        print(f"        [{row[0]}, {row[1]},\n         {row[2]}, {row[3]}],")


def transfer_entry(q, beta, n: int, m: int):
    c = (1 - q) * beta

    def e(row: int, k: int):
        return c ** (row - k) * mp.sqrt(mp.factorial(row) / mp.factorial(k)) / mp.factorial(row - k)

    pref = mp.sqrt((1 - q * q) / mp.pi) * mp.exp(-(1 - q) * abs(beta) ** 2)
    return pref * mp.fsum(e(n, k) * q**k * mp.conj(e(m, k)) for k in range(min(n, m) + 1))


def loss_gain_entry(q, n: int, m: int):
    gain = 2 / (1 + q)
    eta = 1 / gain
    return mp.fsum(
        mp.binomial(m, k) * eta**k * (1 - eta) ** (m - k)
        * mp.binomial(n, k) * gain ** -(k + 1) * (1 - 1 / gain) ** (n - k)
        for k in range(min(n, m) + 1)
    )


def conditional_entry(q, r):
    """(p0, p1, p_ge2) of the |1> input at a real beta = r."""
    p0, p1 = (abs(transfer_entry(q, r, n, 1)) ** 2 for n in (0, 1))
    squared = (1 - q * q) / mp.pi / mp.sqrt((1 - q**4) / mp.pi)
    total = squared * transfer_entry(q * q, r, 1, 1).real
    return p0, p1, total - p0 - p1


def outcome_density(q, beta, amplitudes: dict):
    """<psi|T_q(beta)^2|psi> for psi = sum_n amplitudes[n] |n>."""
    squared = (1 - q * q) / mp.pi / mp.sqrt((1 - q**4) / mp.pi)
    return squared * mp.fsum(
        mp.conj(amplitudes[n]) * amplitudes[m] * transfer_entry(q * q, beta, n, m)
        for n in amplitudes
        for m in amplitudes
    ).real


def print_literals() -> None:
    # the floats as written, so the tests feed the kernels the same beta
    betas = [(complex(re, im), mp.mpc(mp.mpf(re), mp.mpf(im))) for re, im in BETAS]
    print("DISPLACEMENT = {")
    for key, beta in betas:
        print(f"    {key!r}: [")
        print_block(lambda m, n: displacement_entry(beta, m, n))
        print("    ],")
    print("}")
    print("TRANSFER = {")
    for q_text in QS:
        q = mp.mpf(q_text)
        for key, beta in betas:
            print(f"    ({q_text}, {key!r}): [")
            print_block(lambda n, m: transfer_entry(q, beta, n, m))
            print("    ],")
    print("}")
    print("TRANSFER_DEEP = {")
    for q_text in DEEP_QS:
        q = mp.mpf(q_text)
        for re, im in DEEP_BETAS:
            beta = mp.mpc(mp.mpf(re), mp.mpf(im))
            print(f"    ({q_text}, {complex(re, im)!r}): [")
            for n in range(DEEP_SIZE):
                row = [repr(complex(transfer_entry(q, beta, n, m))) for m in range(DEEP_SIZE)]
                lines = [", ".join(row[i : i + 3]) for i in range(0, DEEP_SIZE, 3)]
                print("        [" + ",\n         ".join(lines) + "],")
            print("    ],")
    print("}")
    print("PHOTON_TRANSFER = {")
    for q_text in QS:
        q = mp.mpf(q_text)
        print(f"    {q_text}: [")
        for n in range(SIZE):
            row = ", ".join(repr(float(loss_gain_entry(q, n, m))) for m in range(SIZE))
            print(f"        [{row}],")
        print("    ],")
    print("}")
    print("CONDITIONAL = {")
    for q in CONDITIONAL_QS:
        for r in CONDITIONAL_RADII:
            row = ", ".join(repr(float(p)) for p in conditional_entry(mp.mpf(q), mp.mpf(r)))
            print(f"    ({q!r}, {r!r}): [{row}],")
    print("}")
    print("OUTCOME_DENSITY = {")
    for name, amplitudes in DENSITY_INPUTS.items():
        for q in DENSITY_QS:
            for re, im in DENSITY_BETAS:
                value = outcome_density(mp.mpf(q), mp.mpc(mp.mpf(re), mp.mpf(im)), amplitudes)
                print(f"    ({name!r}, {q!r}, {complex(re, im)!r}): {float(value)!r},")
    print("}")


def literals(source: str, names=None) -> dict:
    """The module-level literals assigned in ``source``, by name."""
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and (names is None or node.targets[0].id in names)
    }


def check() -> int:
    """1 when a literal of the tests differs from the generator's output."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        print_literals()
    expected = literals(text.getvalue())
    actual = literals(TESTS.read_text(encoding="utf-8"), expected)
    stale = [name for name, value in expected.items() if actual.get(name) != value]
    for name in stale:
        print(f"{TESTS.name}: {name} differs from the generator's output", file=sys.stderr)
    return 1 if stale else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare the test literals")
    if parser.parse_args().check:
        return check()
    print_literals()
    return 0


if __name__ == "__main__":
    sys.exit(main())
