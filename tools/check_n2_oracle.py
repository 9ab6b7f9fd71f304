"""tests/oracles.py's exact N = 2 drop against mpmath at 30 digits:
``python tools/check_n2_oracle.py``.

mpmath is not a dependency of the project; this script is run by hand when
the oracle changes, and prints a Markdown table of relative differences:
the top height T and the mass at the oracle's own v0.
"""

import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
import oracles  # noqa: E402

mp.mp.dps = 30


def exact_mass(v0, p, tau, omega):
    """2 (r v - w*) at w*, with r = int_0^w* dw / v by mpmath quadrature."""
    p, tau, omega, v0 = (mp.mpf(x) for x in (p, tau, omega, v0))
    q = p / (p - 1)
    w_star = (1 - (-omega / tau) ** q) ** (1 / q)

    def v(w):
        return mp.sqrt(v0**2 + 2 * tau * (1 - (1 - w**q) ** (1 / q)))

    # Breakpoints doubling from the scale where v^2 doubles v0^2, and
    # halving their distance to the branch point w = 1 up to w*.
    w_c = min((q * v0**2 / (2 * tau)) ** (1 / q), w_star)
    low = [w_c / 16]
    while low[-1] * 2 < w_star / 2:
        low.append(low[-1] * 2)
    high = [1 - (1 - w_star) * 2**k for k in range(60, 0, -1)]
    points = [mp.mpf(0)] + low + [w for w in high if w > w_star / 2] + [w_star]
    return 2 * (mp.quad(lambda w: 1 / v(w), points) * v(w_star) - w_star)


def exact_drop(p, tau, omega, m, v0_guess):
    """(v0, T) with exact_mass(v0) = m, by a secant solve in log v0."""
    x = mp.findroot(lambda x: exact_mass(mp.exp(x), p, tau, omega) - m, mp.log(v0_guess))
    v0 = mp.exp(x)
    return v0, mp.sqrt(v0**2 + 2 * (mp.mpf(tau) + omega)) - v0


def main():
    print("| phi | omega / tau | m | T (mpmath) | rel. diff. of T | rel. diff. of the mass at the oracle's v0 |")
    print("|---|---:|---:|---|---:|---:|")
    for name, p, tau in (("euclid", 2.0, 1.0), ("weighted c=2", 2.0, 2.0**0.5),
                         ("pnorm 3", 3.0, 1.0), ("pnorm 1.5", 1.5, 1.0)):
        for frac in (-0.5, -0.05):
            omega = frac * tau
            for m in (0.01, 1.0, 10.0):
                try:
                    v0, top = oracles.n2_drop(p, tau, omega, m)
                except ValueError as exc:
                    print(f"| {name} | {frac} | {m:g} | {exc} | | |")
                    continue
                v0_mp, top_mp = exact_drop(p, tau, omega, m, v0)
                mass = oracles.n2_mass(v0, p, tau, omega)
                mass_mp = exact_mass(v0, p, tau, omega)
                print(f"| {name} | {frac} | {m:g} | {mp.nstr(top_mp, 15)} "
                      f"| {float(abs(top / top_mp - 1)):.1e} "
                      f"| {float(abs(mass / mass_mp - 1)):.1e} |")


if __name__ == "__main__":
    main()
