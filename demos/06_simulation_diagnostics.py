"""Simulation-side checks: trajectories, long-run occupancy against a
censored solve, and return times to a sublevel set of V.

Everything here is seeded, so repeated runs print identical numbers.
"""

from crnkit import (
    lyapunov_sublevel,
    occupancy_estimate,
    return_times,
    ssa_simulate,
    truncated_stationary,
)
from crnkit.catalog import birth_death, five_complex_cycle


def main():
    bd = birth_death(2.0, 1.0)
    sample = ssa_simulate(bd, (0,), max_jumps=8, seed=11)
    print("first jumps of the birth-death chain (seed 11):")
    for t, state in zip(sample.times, sample.states):
        print(f"  t = {t:8.4f}  x = {tuple(int(v) for v in state)}")
    print(f"  terminated by: {sample.terminated_by}")
    print()

    solve = truncated_stationary(bd, [(i,) for i in range(41)])
    occupancy = occupancy_estimate(bd, (0,), t_max=200_000, seed=42)
    support = set(solve.as_dict()) | set(occupancy.as_dict())
    tv = 0.5 * sum(
        abs(solve.probability_of(x) - occupancy.probability_of(x)) for x in support
    )
    print("birth-death occupancy over t in [0, 2e5] vs censored solve on {0..40}:")
    print(f"  total variation distance: {tv:.4f}")
    for i in range(6):
        print(
            f"  pi({i}): solve {solve.probability_of((i,)):.4f}   "
            f"occupancy {occupancy.probability_of((i,)):.4f}"
        )
    print()

    cycle = five_complex_cycle()
    target = lyapunov_sublevel(10.0)
    stats = return_times(
        cycle, (1, 1, 1), target, horizon=100_000.0, replicas=100, seed=99
    )
    print(f"return times to {{{stats.target_description}}} on the cycle:")
    print(f"  replicas: {stats.replicas}, non-returning: {stats.non_returning}")
    print(f"  mean {stats.mean:.1f}, median {stats.median:.1f}, max {stats.max:.1f}")


if __name__ == "__main__":
    main()
