"""Finite pointed metric spaces and countable distance-oracle families.

All arithmetic is exact (`fractions.Fraction`).  Custom file input with
non-integral float entries is validated as ``approximate``: its comparisons
allow ``FLOAT_TOLERANCE`` of slack, and the space carries that flag.

``validate_metric`` accepts lines, ultrametrics and matrices whose every
distance is at most the sum of its two ends' nearest-neighbour distances,
and ``is_ultrametric`` ultrametrics, in O(n^2) by exact certificates
(``_line_certificate``, ``_ultrametric_certificate``,
``_neighbour_certificate``); every other matrix takes an O(n^3) scan on
integers over one common denominator, which stays exact (see
``_integer_matrix``) and names the first violated triple.  Approximate
matrices try the same certificates: one that passes is an exact metric.

``truncate`` certifies a truncation on its own ints: it fetches each
distance above the diagonal once, scales them once (``scaled_distances``)
and lets ``exact_space`` run the certificates, or the scan, on those ints.
Only a matrix with an entry at or below the tolerance, or a common
denominator past ``_SCAN_BITS``, goes to ``validate_metric``, so errors and
witnesses are its own.

Conventions:

* a ``FiniteMetricSpace`` has points labelled ``0..n-1`` with base point 0;
* a ``MetricFamily`` is an oracle over 1-based indices ``x_1, x_2, ...``;
  truncating at N relabels ``x_1 -> 0, ..., x_N -> N-1`` so the base point
  of the truncation is the family's first point.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, compress
from math import floor, lcm
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    Asymmetric,
    InvalidFamilyParameters,
    NegativeOrZeroOffDiagonal,
    PointOutsideSpace,
    ResultTooLarge,
    TriangleViolation,
    outside_input,
)

FLOAT_TOLERANCE = Fraction(1, 10**9)
MAX_POINTS = 512  # truncation cap: the O(n^3) scan of a space that no
# certificate accepts takes seconds here


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings, Fractions and floats to an exact Fraction.

    A string's exponent above Python's integer-string digit limit raises
    ValueError: it would build an integer of that many digits."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, str) and ("e" in value or "E" in value):
        exponent = value.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "")
        limit = sys.get_int_max_str_digits()
        if limit and exponent.isdecimal() and int(exponent) > limit:
            raise ValueError(f"exponent of {value[:40]!r} exceeds {limit}")
    if isinstance(value, (int, str, float)):
        return Fraction(value)  # a float gives its exact binary value
    raise TypeError(f"cannot interpret {value!r} as a rational")


def fraction_str(value: Fraction) -> str:
    """Canonical 'p/q' (or 'p') encoding used in all JSON output.

    A numerator or denominator with more digits than Python's integer-string
    digit limit raises ResultTooLarge."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ResultTooLarge(f"an exact result has more than {limit} digits") from exc


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated pointed metric on n points; base point is index 0.

    ``ints`` is ``dist`` times ``scale``, exact integers, when the space was
    built from them: by ``exact_space`` (truncations and plan spaces) or by
    ``validate_metric`` (file input) when the common denominator has at most
    ``_SCAN_BITS`` bits.  It is None past that, and on a space built by hand.
    Neither takes part in equality, so a space equals itself however built.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    approximate: bool = False
    ints: Optional[tuple[tuple[int, ...], ...]] = field(default=None, compare=False, repr=False)
    scale: Optional[int] = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.dist)


def integer_scale(values: Sequence, max_bits: Optional[int] = None) -> tuple[list[int], int]:
    """``values`` (ints or Fractions) times the lcm of their denominators, and that lcm.

    An lcm of more than ``max_bits`` bits raises InvalidFamilyParameters as
    soon as it grows past them, before anything is scaled."""
    denominators = {v.denominator for v in values}
    scale = 1
    for d in denominators:
        scale = lcm(scale, d)
        if max_bits is not None and scale.bit_length() > max_bits:
            raise InvalidFamilyParameters(f"a common denominator of more than {max_bits} bits")
    if scale == 1:  # the numerators themselves, not copies of them
        return [v.numerator for v in values], 1
    factor = {d: scale // d for d in denominators}
    return [v.numerator * factor[v.denominator] for v in values], scale


_SCAN_BITS = 256


def _integer_matrix(mat, tol: Fraction = Fraction(0)):
    """Rows of ``mat`` and ``tol`` as floor(v * scale), the slack of those floors, and the scale.

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
    return [flat[1 + i * n : 1 + (i + 1) * n] for i in range(n)], flat[0], slack, scale


class _ParseCache(dict):
    """String entry -> its ``as_fraction``, parsed on first lookup only."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = as_fraction(text)
        return value


def validate_metric(dist, approximate: bool = False) -> FiniteMetricSpace:
    """Check the metric axioms and return the validated space.

    Raises the first violated axiom with its witness indices, scanning
    symmetry row-major, then diagonal/positivity, then triples in
    lexicographic order (i, j, k) testing dist[i][k] <= dist[i][j] + dist[j][k].
    A matrix that passes ``_line_certificate`` (on the integers, or on the
    Fractions when the integers are rounded), ``_ultrametric_certificate``
    or ``_neighbour_certificate`` skips the triple scan: a symmetric matrix
    with positive entries that is a line, an ultrametric, or has each
    distance at most the sum of its ends' least distances is a metric.

    Entries are read in row-major order, so the first one that is no
    rational is the one reported.  ``Fraction`` entries are taken as they
    are, and each distinct string is parsed once: a file matrix repeats a few
    strings n^2 times.

    An ``approximate`` matrix (custom float input) is compared with
    ``FLOAT_TOLERANCE`` of slack, and the result is flagged approximate;
    entries are still stored as exact fractions of the given values,
    symmetrised from the upper triangle.  It tries the same certificates,
    since an exact metric is also one within the tolerance.
    """
    n = len(dist)
    if n == 0 or any(len(row) != n for row in dist):
        raise InvalidFamilyParameters("distance matrix must be square and nonempty")
    parsed = _ParseCache()
    with outside_input("distance entries"):
        mat = [
            [v if type(v) is Fraction else parsed[v] if type(v) is str else as_fraction(v) for v in row]
            for row in dist
        ]
    exact_tol = FLOAT_TOLERANCE if approximate else Fraction(0)
    ints, tol, slack, scale = _integer_matrix(mat, exact_tol)

    for i, j in combinations(range(n), 2):
        if abs(ints[i][j] - ints[j][i]) > tol - slack and abs(mat[i][j] - mat[j][i]) > exact_tol:
            raise Asymmetric(i, j)
        ints[j][i] = ints[i][j]
        mat[j][i] = mat[i][j]
    for i, row in enumerate(ints):
        if abs(row[i]) > tol - slack and abs(mat[i][i]) > exact_tol:
            raise NegativeOrZeroOffDiagonal(i, i)
        row[i] = slack  # 1 when rounded: keeps k = i, k = j and j = i under the bound
        mat[i][i] = Fraction(0)
        for j, v in enumerate(row):
            if i != j and v <= tol and mat[i][j] <= exact_tol:
                raise NegativeOrZeroOffDiagonal(i, j)
    if not _certified(ints, mat, slack):
        _triangle_scan(ints, mat, tol - slack, exact_tol)
    if slack:  # rounded ints are not the space's
        return FiniteMetricSpace(tuple(map(tuple, mat)), approximate)
    return FiniteMetricSpace(tuple(map(tuple, mat)), approximate, tuple(map(tuple, ints)), scale)


def _certified(ints, mat, slack) -> bool:
    """Whether a certificate accepts ``mat``, scaled to ``ints`` by ``_integer_matrix``."""
    return (
        _line_certificate(mat if slack else ints)  # rounded ints are not exact
        or _ultrametric_certificate(ints, mat, slack)
        or _neighbour_certificate(ints, slack)
    )


def _above_tolerance(ints, scale: int, approximate: bool) -> bool:
    """Whether every entry above the diagonal of ``ints``, a matrix scaled by ``scale``,
    exceeds the scaled tolerance."""
    tol = FLOAT_TOLERANCE * scale if approximate else 0
    return all(min(row[i + 1 :]) > tol for i, row in enumerate(ints[:-1]))


def is_certified_ultrametric(ints, scale: int, approximate: bool = False) -> bool:
    """Whether a symmetric zero-diagonal matrix, exactly ``ints`` / ``scale``, has
    every entry off the diagonal above the scaled tolerance and passes
    ``_prim_certificate``: it is then a metric that ``is_ultrametric`` accepts."""
    return _above_tolerance(ints, scale, approximate) and _prim_certificate(ints)


def exact_space(dist, ints, scale: int, approximate: bool = False) -> FiniteMetricSpace:
    """``validate_metric(dist, approximate)``, space or error, for a symmetric
    zero-diagonal matrix ``dist`` that is exactly ``ints`` / ``scale``.

    When every entry off the diagonal is above the tolerance, a certificate
    on ``ints`` accepts ``dist`` as it is, and if none does while ``scale``
    has at most ``_SCAN_BITS`` bits, the scan runs on ``ints`` and names the
    same first violated triple.  Any other matrix, and ``ints`` of None, go
    to ``validate_metric``.  The space keeps ``ints`` and ``scale`` when
    ``scale`` has at most ``_SCAN_BITS`` bits.
    """
    if ints is not None and _above_tolerance(ints, scale, approximate):
        kept = (ints, scale) if scale.bit_length() <= _SCAN_BITS else ()
        if _certified(ints, ints, 0):
            return FiniteMetricSpace(dist, approximate, *kept)
        if kept:
            # an int difference exceeds a bound iff it exceeds the bound's floor
            int_tol = floor(FLOAT_TOLERANCE * scale) if approximate else 0
            _triangle_scan(ints, ints, int_tol, int_tol)
            return FiniteMetricSpace(dist, approximate, *kept)
    return validate_metric(dist, approximate)


def _triangle_scan(ints, sym, int_tol, exact_tol) -> None:
    """``validate_metric``'s O(n^3) scan: raise TriangleViolation(i, j, k) for
    the first triple in lexicographic order with sym[i][k] > sym[i][j] +
    sym[j][k] + exact_tol.

    ``ints`` are the rows of ``sym`` scaled as by ``_integer_matrix``, with
    the slack on the diagonal, and ``int_tol`` the scaled tolerance less the
    slack; every triple they flag is settled on ``sym``.
    """
    # a triangle fails iff dist[i][k] - dist[j][k] > dist[i][j] + tol, which no
    # k = i, k = j or j = i can meet, so one max() tests a whole row pair
    for i, row_i in enumerate(ints):
        for j, row_j in enumerate(ints):
            bound = row_i[j] + int_tol
            if max(map(sub, row_i, row_j)) > bound:
                for k, (a, b) in enumerate(zip(row_i, row_j)):
                    if a - b > bound and sym[i][k] - sym[j][k] > sym[i][j] + exact_tol:
                        raise TriangleViolation(i, j, k)


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
    d_limit: Optional[Fraction] = None  # lim_k lim_n rho(x_k, x_n)
    bounded: bool = True
    converges_to_base: bool = False  # rho(x_n, x_1) -> 0
    delta_unbounded: bool = False  # pairing (2t, 2t+1) has delta_t -> infinity
    ultrametric: bool = False
    approximate: bool = False  # from float file input: truncations validate as approximate
    # smallest index i > center with rho(i, center) > radius, or None
    first_index_beyond: Optional[Callable[[int, Fraction], Optional[int]]] = None
    # the oracle returns at most this many distinct values, or None if unknown;
    # dataclasses.replace(..., oracle=...) must keep the new oracle within it
    distinct_distances: Optional[int] = None

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


def distance_matrix(upper: Sequence, n: int, zero=Fraction(0)) -> tuple[tuple, ...]:
    """Symmetric n x n matrix with ``zero`` on the diagonal, from its n(n-1)/2
    entries above the diagonal in ``combinations(range(n), 2)`` order."""
    mat = [[zero] * n for _ in range(n)]
    for (i, j), v in zip(combinations(range(n), 2), upper):
        mat[i][j] = mat[j][i] = v
    return tuple(map(tuple, mat))


def rational_distances(values: Iterable) -> list[Fraction]:
    """``values`` as ``validate_metric`` reads its entries: a ``Fraction`` as it is,
    anything else through ``as_fraction``, and InvalidFamilyParameters for the
    first that is no rational."""
    with outside_input("distance entries"):
        return [v if type(v) is Fraction else as_fraction(v) for v in values]


def scaled_distances(upper: Sequence, n: int):
    """``distance_matrix`` of ``rational_distances(upper)``, that matrix times the
    lcm of its denominators, and the lcm.

    The scaled matrix is None, and nothing is scaled, when the lcm has more than
    ``_SCAN_BITS`` bits: ``validate_metric`` would round it.
    """
    upper = rational_distances(upper)
    dist = distance_matrix(upper, n)
    try:
        ints, scale = integer_scale(upper, _SCAN_BITS)
    except InvalidFamilyParameters:
        return dist, None, 0
    return dist, distance_matrix(ints, n, 0), scale


def truncate(family: MetricFamily, N: int) -> FiniteMetricSpace:
    """Finite space on the family points x_1..x_N, base point x_1 relabelled 0.

    Each distance is fetched once and the matrix scaled once, and a
    certificate or the scan accepts it on those ints (``exact_space``)."""
    if not 1 <= N <= MAX_POINTS:
        raise InvalidFamilyParameters(f"truncation size must be in 1..{MAX_POINTS}")
    if family.size is not None and N > family.size:
        raise InvalidFamilyParameters(
            f"family {family.label} has only {family.size} points"
        )
    upper = [family.distance(i + 1, j + 1) for i, j in combinations(range(N), 2)]
    return exact_space(*scaled_distances(upper, N), family.approximate)


def _line_certificate(rows) -> bool:
    """Whether rows[i][j] = |c_i - c_j| for every i, j, where c = rows[a] and
    a is the point farthest from point 0.

    A matrix that passes is the metric of the points c_i on the real line.
    Every line metric passes: the point farthest from any point of a line is
    an end of its hull, so c_i is x_i measured from that end.
    """
    row_0 = rows[0]
    c = rows[row_0.index(max(row_0))]
    return all(list(row) == [abs(c_i - c_j) for c_j in c] for c_i, row in zip(c, rows))


def _prim_certificate(rows) -> bool:
    """Whether rows[p_t][p_s] = max(k_{s+1}, ..., k_t) for every s < t.

    p is Prim's order from point 0 and k_t the weight that attached p_t.  A
    matrix that passes is an ultrametric: for s < t < u the interval (s, u]
    is the union of (s, t] and (t, u], so rho(p_s, p_u) is the larger of the
    triangle's other two sides, and both lie inside it.  Every ultrametric
    passes: max(k_{s+1..t}) is the bottleneck distance between p_s and p_t,
    and in an ultrametric that is the distance itself.  Each p_t is checked
    as it is attached, so most other matrices fail after a few points.
    """
    order, keys = [0], []
    reach = list(rows[0])  # least distance from the tree to each point
    left = list(range(1, len(rows)))
    while left:
        t = min(left, key=reach.__getitem__)
        left.remove(t)
        keys.append(reach[t])
        row = rows[t]
        if [row[p] for p in reversed(order)] != list(accumulate(reversed(keys), max)):
            return False
        order.append(t)
        reach = list(map(min, reach, row))
    return True


def _ultrametric_certificate(ints, mat, slack) -> bool:
    """``_prim_certificate`` on ``mat``, scaled to ``ints`` by ``_integer_matrix``.

    Exact ints (slack 0) decide alone.  Rounded ints are tested first all the
    same: rounding down is monotone, so it keeps an ultrametric one, and a
    matrix whose rounded ints fail is none; only a pass is settled on ``mat``.
    """
    return _prim_certificate(ints) and (not slack or _prim_certificate(mat))


def _neighbour_certificate(ints, slack) -> bool:
    """Whether ints[i][k] + slack <= m_i + m_k for every i, k, where m_i is the
    least entry of row i off the diagonal.

    ``ints`` are a matrix scaled by ``_integer_matrix``, with the slack on the
    diagonal.  A symmetric matrix with positive entries that passes is a
    metric: for any j, d(i, j) + d(j, k) >= m_i + m_k.  Rounded ints (slack
    1) decide alone: each scaled entry is below its floor plus 1, and the
    floor of a least entry is the least floor, so the floors' bound with the
    slack holds for the entries too.  Every matrix with entries in [a, 2a]
    passes when exact.
    """
    m = [min(row[:i] + row[i + 1 :]) for i, row in enumerate(ints)]
    return all(max(map(sub, row, m)) + slack <= m_i for row, m_i in zip(ints, m))


def is_ultrametric(space: FiniteMetricSpace):
    """Strong triangle inequality check, exact on integers.

    Returns ``(True, None)`` or ``(False, (x, y, z))`` for the first triple in
    lexicographic order with rho(x, y) > max(rho(x, z), rho(z, y)).  A matrix
    that passes ``_ultrametric_certificate`` is accepted in O(n^2); every
    other matrix takes the O(n^3) scan, which finds the witness.  Both read
    the space's ``ints`` when it has them, and ``_integer_matrix`` otherwise.
    """
    d = space.dist
    if space.ints is None:
        rows, _, slack, _ = _integer_matrix(d)
    else:
        rows, slack = space.ints, 0
    if _ultrametric_certificate(rows, d, slack):
        return True, None
    return _ultrametric_scan(rows, d, slack)


def _ultrametric_scan(rows, d, slack):
    """``is_ultrametric``'s O(n^3) scan of ``d``; ``rows`` are ``d`` scaled
    by ``_integer_matrix``, below it by less than ``slack``."""
    # a diagonal above every entry keeps z = x and z = y out of the filters below
    top = max(map(max, rows), default=0) + 1
    rows = [list(row) for row in rows]  # a space's ints are read-only
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


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a missing, unreadable or non-UTF-8 file
    raises InvalidFamilyParameters."""
    with outside_input(f"file {path}"), open(path, encoding="utf-8") as handle:
        return handle.read()


def load_space(source) -> FiniteMetricSpace:
    """Load a custom space from JSON text or a dict: {"n": int, "dist": [[...]]}.

    Entries may be numbers or 'p/q' strings.  Non-integral float entries
    make the space approximate (see ``validate_metric``).
    The matrix must be full, not triangular.  Text that is not JSON, a
    "dist" that is not a list of rows and entries that are not rationals
    raise InvalidFamilyParameters.
    """
    with outside_input("custom space JSON"):
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
        dist = obj["dist"]
        if not isinstance(dist, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in dist):
            raise ValueError('"dist" must be a list of rows')
        if obj.get("n", len(dist)) != len(dist):
            raise ValueError('"n" does not match the matrix size')
    has_float = any(isinstance(v, float) and not v.is_integer() for row in dist for v in row)
    return validate_metric(dist, has_float)


def free_element_to_json(element: FreeElement) -> list:
    return [{"point": p, "coef": fraction_str(c)} for p, c in element.support]


def free_element_from_json(source) -> FreeElement:
    """Parse [{"point": i, "coef": "p/q"}, ...]; malformed input raises
    InvalidFamilyParameters."""
    with outside_input("free element JSON"):
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
        if not isinstance(obj, list) or not all(isinstance(item, dict) for item in obj):
            raise ValueError("a list of {point, coef} objects is needed")
        if any(type(item["point"]) is not int for item in obj):
            raise ValueError("points must be integers")
        return FreeElement.from_pairs((item["point"], item["coef"]) for item in obj)
