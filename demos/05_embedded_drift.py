"""Multi-step drift of V along the embedded jump chain.

One-step drift can have the wrong sign even for a positive recurrent
chain.  On the five-complex cycle the expected one-step change of V from
(n, 1, 0) stays positive for every n shown, while the five-step change
turns negative once n is large: the chain needs a few jumps to convert
A-mass into the complexes that drain it.  The exact values come from
carrying the embedded chain's law forward k steps and averaging the change
of V over it; the Monte Carlo estimate is there to show agreement within
its standard error.
"""

from crnkit import drift_estimate_mc, exact_kstep_drift
from crnkit.catalog import birth_death, five_complex_cycle


def main():
    bd = birth_death(1.0, 1.0)
    exact = exact_kstep_drift(bd, (5,), 1)
    mean, stderr = drift_estimate_mc(bd, (5,), 1, replicas=200_000, seed=7)
    print("birth-death at x = 5, one embedded step:")
    print(f"  exact        {exact:+.10f}")
    print(f"  monte carlo  {mean:+.10f} +/- {stderr:.10f}")
    print(f"  gap in standard errors: {abs(mean - exact) / stderr:.2f}")
    print()

    cycle = five_complex_cycle()
    print("five-complex cycle from (n, 1, 0):")
    print(f"  {'n':>7}  {'1-step':>12}  {'5-step':>12}")
    for n in (10, 100, 1000, 10_000):
        one = exact_kstep_drift(cycle, (n, 1, 0), 1)
        five = exact_kstep_drift(cycle, (n, 1, 0), 5)
        print(f"  {n:>7}  {one:>+12.6f}  {five:>+12.6f}")
    print()
    print("the 1-step column never goes negative; the 5-step column does.")


if __name__ == "__main__":
    main()
