"""Finite pointed metric spaces and countable distance-oracle families.

All catalog arithmetic is exact (`fractions.Fraction`).  A float path with a
small tolerance exists only for custom file input whose entries are not
rational; such spaces are flagged ``approximate``.

The O(n^3) checks in ``validate_metric`` and ``is_ultrametric`` run on
integers over one common denominator and stay exact (see ``_integer_matrix``).

Conventions:

* a ``FiniteMetricSpace`` has points labelled ``0..n-1`` with base point 0;
* a ``MetricFamily`` is an oracle over 1-based indices ``x_1, x_2, ...``;
  truncating at N relabels ``x_1 -> 0, ..., x_N -> N-1`` so the base point
  of the truncation is the family's first point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from operator import sub
from typing import Callable, Optional, Sequence

from .errors import (
    Asymmetric,
    InvalidFamilyParameters,
    NegativeOrZeroOffDiagonal,
    PointOutsideSpace,
    TriangleViolation,
)

FLOAT_TOLERANCE = Fraction(1, 10**9)


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings, Fractions and floats to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value of the float
    raise TypeError(f"cannot interpret {value!r} as a rational")


def fraction_str(value: Fraction) -> str:
    """Canonical 'p/q' (or 'p') encoding used in all JSON output."""
    return str(Fraction(value))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated pointed metric on n points; base point is index 0."""

    dist: tuple[tuple[Fraction, ...], ...]
    approximate: bool = False

    @property
    def n(self) -> int:
        return len(self.dist)


_SCAN_BITS = 256


def _integer_matrix(mat, tol: Fraction = Fraction(0)):
    """Rows of ``mat`` and ``tol`` as floor(v * scale), and the slack of those floors.

    The scale is the lcm of the denominators, so the ints are exact (slack 0),
    unless that lcm has more than ``_SCAN_BITS`` bits: it is then 2**_SCAN_BITS
    and a sum of floors may be off by less than the slack of 1.  The scans flag
    what fails against bounds loosened by the slack and settle it on Fractions.
    """
    n = len(mat)
    flat = [tol, *(v for row in mat for v in row)]
    scale, slack = 1, 0
    for d in {v.denominator for v in flat}:
        scale = lcm(scale, d)
        if scale.bit_length() > _SCAN_BITS:
            scale, slack = 1 << _SCAN_BITS, 1
            break
    flat = [v.numerator * scale // v.denominator for v in flat]
    return [flat[1 + i * n : 1 + (i + 1) * n] for i in range(n)], flat[0], slack


def validate_metric(dist, tolerance: Optional[float] = None) -> FiniteMetricSpace:
    """Check the metric axioms and return the validated space.

    Raises the first violated axiom with its witness indices, scanning
    symmetry row-major, then diagonal/positivity, then triples in
    lexicographic order (i, j, k) testing dist[i][k] <= dist[i][j] + dist[j][k].

    With ``tolerance`` set (custom float input), comparisons allow that much
    slack and the result is flagged approximate; entries are still stored as
    exact fractions of the given values, symmetrised from the upper triangle.
    """
    n = len(dist)
    if n == 0 or any(len(row) != n for row in dist):
        raise InvalidFamilyParameters("distance matrix must be square and nonempty")
    try:
        mat = [[as_fraction(v) for v in row] for row in dist]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidFamilyParameters(f"distance entries must be rationals: {exc}") from exc
    exact_tol = Fraction(tolerance or 0)
    ints, tol, slack = _integer_matrix(mat, exact_tol)

    for i, j in combinations(range(n), 2):
        if abs(ints[i][j] - ints[j][i]) > tol - slack and abs(mat[i][j] - mat[j][i]) > exact_tol:
            raise Asymmetric(i, j)
        ints[j][i] = ints[i][j]
    sym = distance_matrix(lambda i, j: mat[i][j], n)
    for i, row in enumerate(ints):
        if abs(row[i]) > tol - slack and abs(mat[i][i]) > exact_tol:
            raise NegativeOrZeroOffDiagonal(i, i)
        row[i] = slack  # 1 when rounded: keeps k = i, k = j and j = i under the bound
        for j, v in enumerate(row):
            if i != j and v <= tol and sym[i][j] <= exact_tol:
                raise NegativeOrZeroOffDiagonal(i, j)
    # a triangle fails iff dist[i][k] - dist[j][k] > dist[i][j] + tol, which no
    # k = i, k = j or j = i can meet, so one max() tests a whole row pair
    for i, row_i in enumerate(ints):
        for j, row_j in enumerate(ints):
            bound = row_i[j] + tol - slack
            if max(map(sub, row_i, row_j)) > bound:
                for k, (a, b) in enumerate(zip(row_i, row_j)):
                    if a - b > bound and sym[i][k] - sym[j][k] > sym[i][j] + exact_tol:
                        raise TriangleViolation(i, j, k)

    return FiniteMetricSpace(dist=tuple(map(tuple, sym)), approximate=tolerance is not None)


@dataclass(frozen=True)
class MetricFamily:
    """A countable pointed metric space given by a closed-form oracle.

    ``distance(i, j)`` is defined for 1-based indices.  Optional metadata
    carries the limit data the embedding constructions need; absent metadata
    forces finite-horizon estimation or an explicit error downstream.
    """

    label: str
    oracle: Callable[[int, int], Fraction]  # called with i < j only
    size: Optional[int] = None  # None means infinite
    d_k: Optional[Callable[[int], Fraction]] = None  # k -> lim_n rho(x_k, x_n)
    d_limit: Optional[Fraction] = None  # lim_k d_k
    bounded: Optional[bool] = None
    converges_to_base: bool = False  # rho(x_n, x_1) -> 0
    delta_unbounded: bool = False  # pairing (2t, 2t+1) has delta_t -> infinity
    ultrametric: bool = False
    # smallest index i >= lo with rho(i, center) > radius, or None
    first_index_beyond: Optional[Callable[[int, Fraction, int], Optional[int]]] = None

    def distance(self, i: int, j: int) -> Fraction:
        if i < 1 or j < 1:
            raise InvalidFamilyParameters("family indices are 1-based")
        if self.size is not None and (i > self.size or j > self.size):
            raise InvalidFamilyParameters(
                f"family {self.label} has only {self.size} points"
            )
        if i == j:
            return Fraction(0)
        if i > j:
            i, j = j, i
        return self.oracle(i, j)


def distance_matrix(distance: Callable[[int, int], Fraction], n: int) -> list[list[Fraction]]:
    """Symmetric n x n matrix, zero diagonal, one ``distance(i, j)`` call per i < j."""
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        mat[i][j] = mat[j][i] = distance(i, j)
    return mat


def truncate(family: MetricFamily, N: int) -> FiniteMetricSpace:
    """Finite space on the family points x_1..x_N, base point x_1 relabelled 0."""
    if N < 1:
        raise InvalidFamilyParameters("truncation size must be >= 1")
    if family.size is not None and N > family.size:
        raise InvalidFamilyParameters(
            f"family {family.label} has only {family.size} points"
        )
    return validate_metric(distance_matrix(lambda i, j: family.distance(i + 1, j + 1), N))


def is_ultrametric(space: FiniteMetricSpace):
    """Strong triangle inequality check, exact on integers.

    Returns ``(True, None)`` or ``(False, (x, y, z))`` for the first triple in
    lexicographic order with rho(x, y) > max(rho(x, z), rho(z, y)).
    """
    d = space.dist
    rows, _, slack = _integer_matrix(d)
    # a diagonal above every entry keeps z = x and z = y out of the filters below
    top = max(map(max, rows), default=0) + 1
    for x, row in enumerate(rows):
        row[x] = top
    columns = list(zip(*rows))
    for x, row_x in enumerate(rows):
        for y, col_y in enumerate(columns):
            dxy = row_x[y] + slack
            # least rho(z, y) over the z with rho(x, z) < rho(x, y), up to the slack
            if y != x and min(compress(col_y, map(dxy.__gt__, row_x)), default=dxy) < dxy:
                for z, (a, b) in enumerate(zip(row_x, col_y)):
                    if a < dxy and b < dxy and d[x][y] > max(d[x][z], d[z][y]):
                        return False, (x, y, z)
    return True, None


@dataclass(frozen=True)
class FreeElement:
    """Finitely supported vector sum a_i * delta_{x_i} (sparse, exact).

    The base point never appears in the support (delta_0 is the zero
    element); zero coefficients and duplicate indices are normalised away.
    """

    support: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_pairs(pairs) -> "FreeElement":
        acc: dict[int, Fraction] = {}
        for point, coef in pairs:
            point = int(point)
            if point < 0:
                raise ValueError("point indices must be nonnegative")
            c = as_fraction(coef)
            acc[point] = acc.get(point, Fraction(0)) + c
        support = tuple(
            (p, c) for p, c in sorted(acc.items()) if p != 0 and c != 0
        )
        return FreeElement(support=support)

    def coefficient(self, point: int) -> Fraction:
        for p, c in self.support:
            if p == point:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.support

    def scaled(self, factor) -> "FreeElement":
        f = as_fraction(factor)
        if f == 0:
            return FreeElement(support=())
        return FreeElement(support=tuple((p, c * f) for p, c in self.support))

    def plus(self, other: "FreeElement") -> "FreeElement":
        return FreeElement.from_pairs(list(self.support) + list(other.support))

    def check_supported(self, space: FiniteMetricSpace) -> None:
        for p, _ in self.support:
            if not 0 <= p < space.n:
                raise PointOutsideSpace(p, space.n)


def delta(point: int) -> FreeElement:
    """The evaluation element delta_x (zero element when x is the base)."""
    return FreeElement.from_pairs([(point, 1)])


@dataclass(frozen=True)
class LipFunction:
    """Real values on the points of a finite space with value 0 at the base."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("a Lipschitz function needs at least the base point")
        if self.values[0] != 0:
            raise ValueError("Lipschitz functions must vanish at the base point")

    @staticmethod
    def from_values(values: Sequence) -> "LipFunction":
        return LipFunction(values=tuple(as_fraction(v) for v in values))

    def __call__(self, point: int) -> Fraction:
        return self.values[point]


# ---------------------------------------------------------------------------
# JSON codecs (external interfaces)
# ---------------------------------------------------------------------------


def load_space(source) -> FiniteMetricSpace:
    """Load a custom space from JSON: {"n": int, "dist": [[...]]}.

    Entries may be numbers or 'p/q' strings.  Non-integral float entries
    switch validation to the tolerant path and flag the space approximate.
    The matrix must be full, not triangular.  Text that is not JSON, a
    "dist" that is not a list of rows and entries that are not rationals
    raise InvalidFamilyParameters.
    """
    try:
        if hasattr(source, "read"):
            source = source.read()
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidFamilyParameters(f"custom space is not valid JSON: {exc}") from exc
    dist = obj.get("dist") if isinstance(obj, dict) else None
    if not isinstance(dist, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in dist):
        raise InvalidFamilyParameters('custom space JSON needs a "dist" matrix')
    n = obj.get("n", len(dist))
    if n != len(dist):
        raise InvalidFamilyParameters('"n" does not match the matrix size')
    has_float = any(
        isinstance(v, float) and not float(v).is_integer() for row in dist for v in row
    )
    tolerance = float(FLOAT_TOLERANCE) if has_float else None
    return validate_metric(dist, tolerance=tolerance)


def free_element_to_json(element: FreeElement) -> list:
    return [{"point": p, "coef": fraction_str(c)} for p, c in element.support]


def free_element_from_json(source) -> FreeElement:
    """Parse [{"point": i, "coef": "p/q"}, ...]; malformed input raises
    InvalidFamilyParameters."""
    try:
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
        if not isinstance(obj, list) or not all(isinstance(item, dict) for item in obj):
            raise ValueError("a list of {point, coef} objects is needed")
        if any(type(item["point"]) is not int for item in obj):
            raise ValueError("points must be integers")
        return FreeElement.from_pairs((item["point"], item["coef"]) for item in obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidFamilyParameters(f"bad free element JSON: {exc!r}") from exc
