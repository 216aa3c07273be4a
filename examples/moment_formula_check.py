#!/usr/bin/env python
"""Verify the paper's Eq. (1) numerically, three independent ways.

An educational example exercising the Kronecker substrate: for a given
initiator the expected counts of edges / hairpins / tripins / triangles
are computed (a) from the closed forms the estimator uses, (b) by exact
expectation over the dense probability matrix, and (c) by Monte-Carlo
over exact samples.  All three must agree — (a) vs (b) to machine
precision, (c) within sampling error.

This is also the computation that uncovered the OCR corruption in the
paper's printed tripin formula (see docs/kronecker.md).

Run:  python examples/moment_formula_check.py [a b c k]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.synthesis import ensemble_matching_statistics
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronpower import (
    brute_force_expected_counts,
    edge_probability_matrix,
)
from repro.kronecker.moments import expected_statistics
from repro.utils.tables import TextTable


def main(a: float = 0.9, b: float = 0.5, c: float = 0.2, k: int = 6) -> None:
    theta = Initiator(a, b, c)
    print(f"initiator {theta}, order k={k} ({2 ** k} nodes)\n")

    closed = expected_statistics(theta, k)
    brute = brute_force_expected_counts(edge_probability_matrix(theta, k))
    monte_carlo = ensemble_matching_statistics(theta, k, 2000, seed=0)

    table = TextTable(
        ["feature", "closed form (Eq. 1)", "dense expectation", "monte carlo (2000)"],
        title="Three routes to the expected matching statistics",
    )
    for name in ("edges", "hairpins", "tripins", "triangles"):
        table.add_row(
            [
                name,
                getattr(closed, name),
                getattr(brute, name),
                getattr(monte_carlo, name),
            ]
        )
    print(table.render())

    worst = max(
        abs(getattr(closed, name) - getattr(brute, name))
        for name in ("edges", "hairpins", "tripins", "triangles")
    )
    print(f"\nmax |closed - dense| = {worst:.2e}  (agreement to machine precision)")
    relative = np.array(
        [
            abs(getattr(monte_carlo, name) - getattr(closed, name))
            / max(getattr(closed, name), 1e-12)
            for name in ("edges", "hairpins", "tripins", "triangles")
        ]
    )
    print(f"monte-carlo relative deviations: {np.round(relative, 4)}")


if __name__ == "__main__":
    if len(sys.argv) == 5:
        main(float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]),
             int(sys.argv[4]))
    else:
        main()
