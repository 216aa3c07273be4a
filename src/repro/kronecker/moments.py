"""Gleich–Owen closed-form expected counts under the SKG model (paper Eq. 1).

For Θ = [[a, b], [b, c]] and P = Θ^{⊗k} with the paper's undirected
semantics (zero diagonal, each unordered pair an independent edge), the
expected counts of edges E, hairpins H (2-stars), triangles Δ and tripins
T (3-stars) admit closed forms: every term is ``(polynomial in a, b, c)^k``
because sums over node bit-patterns factor across the k Kronecker levels.

The expressions below follow Eq. (1) of the paper (equivalently Gleich &
Owen §4); tests validate every formula against
:func:`repro.kronecker.kronpower.brute_force_expected_counts` on dense
Kronecker powers for k ≤ 4 and against Monte-Carlo sampling.

All functions are vectorised in ``(a, b, c)`` via numpy broadcasting, which
the moment-matching grid search relies on.  :func:`expected_feature_vector`
also evaluates plain Python floats, which is what the numpy oracle of
KronMom's Nelder–Mead refinement does on every step: on three scalars,
numpy's per-operation dispatch costs ten times the arithmetic.  (The
default ``cext`` refinement engine, :mod:`repro.native.kronmom`, writes
the same bodies out in C and takes only the cubes from numpy.)  One body
per feature serves both, and the float results are bit-identical to the
0-d array ones:

* squares of ``a``, ``b``, ``c`` are written as products — numpy's
  ``x**2`` on an array is ``x*x``, where Python's ``x**2`` is libm ``pow``;
* the three raw cubes come from one ``np.power`` call in both cases —
  numpy's SIMD ``power`` loop and libm ``pow`` disagree in the last bit
  for a few percent of inputs;
* every other power has a derived base (``a + b``, …), which is already a
  numpy scalar on the 0-d path, and numpy scalars' ``**`` is libm ``pow``
  just as Python floats' is.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kronecker.initiator import as_initiator
from repro.stats.counts import MatchingStatistics
from repro.utils.validation import check_integer

__all__ = [
    "expected_edges",
    "expected_hairpins",
    "expected_triangles",
    "expected_tripins",
    "expected_statistics",
    "expected_feature_vector",
]


# One body per feature, evaluated on arrays or on Python floats alike;
# ``cubes`` is ``(a³, b³, c³)`` as ``np.power`` computes it.


def _edges(a, b, c, cubes, k):
    return 0.5 * ((a + 2 * b + c) ** k - (a + c) ** k)


def _hairpins(a, b, c, cubes, k):
    a2, b2, c2 = a * a, b * b, c * c
    term_pairs = ((a + b) ** 2 + (b + c) ** 2) ** k
    term_center = (a * (a + b) + c * (b + c)) ** k
    term_square = (a2 + 2 * b2 + c2) ** k
    term_diag = (a2 + c2) ** k
    return 0.5 * (term_pairs - 2 * term_center - term_square + 2 * term_diag)


def _triangles(a, b, c, cubes, k):
    a3, _, c3 = cubes
    b2 = b * b
    closed = (a3 + 3 * b2 * (a + c) + c3) ** k
    one_repeat = (a * (a * a + b2) + c * (b2 + c * c)) ** k
    all_equal = (a3 + c3) ** k
    return (closed - 3 * one_repeat + 2 * all_equal) / 6.0


def _tripins(a, b, c, cubes, k):
    a3, b3, c3 = cubes
    diagonal = a3 + c3
    side = b * (a * a + c * c)
    b2_ac = b * b * (a + c)
    cube_rows = ((a + b) ** 3 + (b + c) ** 3) ** k  # Σ r₁³
    center_hit = (a * (a + b) ** 2 + c * (b + c) ** 2) ** k  # Σ r₁² D
    pair_mixed = (diagonal + side + b2_ac + 2 * b3) ** k  # Σ r₁ r₂
    all_three = (a3 + 2 * b3 + c3) ** k  # Σ r₃
    two_match_sq = (diagonal + b2_ac) ** k  # Σ D r₂
    two_match_lin = (diagonal + side) ** k  # Σ r₁ D²
    diag_only = diagonal**k  # Σ D³
    return (
        cube_rows
        - 3 * center_hit
        - 3 * pair_mixed
        + 2 * all_three
        + 3 * two_match_sq
        + 6 * two_match_lin
        - 6 * diag_only
    ) / 6.0


def _array_arguments(a, b, c):
    a, b, c = np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)
    return a, b, c, (a**3, b**3, c**3)


def _on_arrays(body, a, b, c, k):
    return body(*_array_arguments(a, b, c), check_integer(k, "k", minimum=1))


def expected_edges(a, b, c, k: int):
    """E[E] = ½[(a + 2b + c)^k − (a + c)^k]."""
    return _on_arrays(_edges, a, b, c, k)


def expected_hairpins(a, b, c, k: int):
    """E[H] = ½[((a+b)² + (b+c)²)^k − 2(a(a+b) + c(b+c))^k
    − (a² + 2b² + c²)^k + 2(a² + c²)^k]."""
    return _on_arrays(_hairpins, a, b, c, k)


def expected_triangles(a, b, c, k: int):
    """E[Δ] = ⅙[(a³ + 3b²(a+c) + c³)^k − 3(a(a²+b²) + c(b²+c²))^k
    + 2(a³ + c³)^k]."""
    return _on_arrays(_triangles, a, b, c, k)


def expected_tripins(a, b, c, k: int):
    """E[T] = ⅙[((a+b)³ + (b+c)³)^k − 3(a(a+b)² + c(b+c)²)^k
    − 3(a³ + c³ + b(a²+c²) + b²(a+c) + 2b³)^k + 2(a³ + 2b³ + c³)^k
    + 3(a³ + c³ + b²(a+c))^k + 6(a³ + c³ + b(a²+c²))^k − 6(a³ + c³)^k].

    Derivation: E[T] = Σ_v e₃(row v) with
    ``e₃ = (s₁³ − 3 s₁ s₂ + 2 s₃)/6`` and ``s_m(v) = r_m(v) − D(v)^m``,
    where ``r_m(v) = Σ_u P_uv^m`` (full row) and ``D(v) = P_vv``.  Each of
    the seven resulting sums over v factors across the k Kronecker levels
    into a ``(polynomial)^k`` term.  Note: the coefficient pattern printed
    in the paper's Eq. (1) (… + 5(…)^k + 4(…)^k …) is OCR-corrupted; the
    coefficients below (+3 and +6 on those terms) are the ones that agree
    with brute-force expectations — see tests/kronecker/test_moments.py.
    """
    return _on_arrays(_tripins, a, b, c, k)


def expected_statistics(initiator, k: int) -> MatchingStatistics:
    """All four expected matching features of Θ^{⊗k} as a named tuple."""
    theta = as_initiator(initiator)
    return MatchingStatistics(
        edges=float(expected_edges(theta.a, theta.b, theta.c, k)),
        hairpins=float(expected_hairpins(theta.a, theta.b, theta.c, k)),
        tripins=float(expected_tripins(theta.a, theta.b, theta.c, k)),
        triangles=float(expected_triangles(theta.a, theta.b, theta.c, k)),
    )


_FEATURE_BODIES = {
    "edges": _edges,
    "hairpins": _hairpins,
    "tripins": _tripins,
    "triangles": _triangles,
}


def expected_feature_vector(a, b, c, k: int, features: tuple[str, ...]):
    """Stack of expected feature values (broadcast over a, b, c).

    ``features`` names a subset of ``{"edges", "hairpins", "tripins",
    "triangles"}``; the result has shape ``(len(features),) + broadcast``.
    When ``a``, ``b`` and ``c`` are all Python floats the result is instead
    a tuple of floats, with the same bits the 0-d array evaluation gives
    (see the module docstring).
    """
    k = check_integer(k, "k", minimum=1)
    bodies = []
    for name in features:
        try:
            bodies.append(_FEATURE_BODIES[name])
        except KeyError:
            known = ", ".join(_FEATURE_BODIES)
            raise ValidationError(f"unknown feature {name!r}; known features: {known}") from None
    if type(a) is float and type(b) is float and type(c) is float:
        cubes = np.power(np.array((a, b, c)), 3).tolist()
        return tuple([body(a, b, c, cubes, k) for body in bodies])
    arguments = _array_arguments(a, b, c)
    rows = [np.asarray(body(*arguments, k), dtype=np.float64) for body in bodies]
    if len(rows) > 1:
        rows = np.broadcast_arrays(*rows)
    return np.stack(rows)
