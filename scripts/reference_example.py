#!/usr/bin/env python3
"""Walk the built-in two-element instance through every stage of the pipeline."""

from qnearest import (
    Mode,
    Role,
    SearchProblem,
    build_circuit,
    classical_nearest,
    decide,
    index_distribution,
    load_superposition,
    marginal_probabilities,
    run,
    sample,
)

N, B, A = 3, 5, (2, 6)


def main() -> None:
    problem = SearchProblem(N, A, B, Mode.PAPER)
    print(f"instance: n={N} bits, reference {B}, array {list(A)}\n")

    loaded = load_superposition(problem)
    index_site = loaded.layout.single(Role.INDEX)
    marg = marginal_probabilities(loaded, (index_site,))
    print("after loading, the index marginal is even:")
    for j, p in enumerate(marg.tolist()):
        print(f"  index {j}: {p:.6f}")

    dist = index_distribution(run(problem), problem)
    chosen, is_tie = decide(dist)
    report = classical_nearest(A, B)
    print("\nafter the comparison rotations:")
    for j, p in enumerate(dist.probabilities):
        print(f"  index {j} (value {A[j]}, distance {abs(B - A[j])}): {p:.6f}")
    print(f"decision: index {chosen} (tie: {is_tie})")
    print(f"classical scan agrees: {chosen == report.nearest_index}")

    counts = sample(dist, shots=100_000, seed=42)
    print(f"\n100k shots, seed 42: {counts.counts}")

    full = SearchProblem(N, A, B, Mode.FULL)
    dist_full = index_distribution(run(full), full)
    deviation = max(
        abs(p - q) for p, q in zip(dist.probabilities, dist_full.probabilities)
    )
    print(f"\nfull-circuit mode deviation: {deviation:.2e}")
    print("\nwire-level circuit:")
    print(build_circuit(full).dump(), end="")


if __name__ == "__main__":
    main()
