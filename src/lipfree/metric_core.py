"""Finite pointed metric spaces and countable distance-oracle families.

All arithmetic is exact (`fractions.Fraction`).  Custom file input with
non-integral float entries is validated as ``approximate``: its comparisons
allow ``FLOAT_TOLERANCE`` of slack, and the space carries that flag.

Every validated space takes one route.  Its distances above the diagonal
are scaled once (``_scan_ints``): exact ints over their common denominator
while that has at most ``_SCAN_BITS`` bits, floors at 2**_SCAN_BITS past
it.  ``_checked_space`` then checks the diagonal and positivity, and accepts
lines, ultrametrics and matrices whose every distance is at most the sum of
its two ends' nearest-neighbour distances in O(n^2) by exact certificates
(``_line_certificate``, ``_ultrametric_certificate``,
``_neighbour_certificate``); every other matrix takes an O(n^3) scan on the
ints, which names the first violated triple.  ``validate_metric`` (file
input) checks symmetry first; ``truncate`` and plans hand over their own
distances.  The space keeps exact ints and the name of the check that
accepted it, which ``is_ultrametric`` reads.  Approximate matrices try the
same certificates: one that passes is an exact metric.

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
    value = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ResultTooLarge(f"an exact result has more than {limit} digits") from exc


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated pointed metric on n points; base point is index 0.

    A space built by ``validate_metric``, ``truncate`` or a plan keeps what
    its one check found (``_checked_space``).  ``ints`` is ``dist`` times
    ``scale``, exact integers, when that scale has at most ``_SCAN_BITS``
    bits; both are None past that.  ``certificate`` names what accepted the
    matrix: "line", "ultrametric" or "neighbour", or "scan" when no
    certificate did and the triangle scan found no violated triple.
    ``structure`` is what the line or ultrametric certificate found, kept
    when the ints are exact: a line's coordinates, the row ``c`` of
    ``_line_certificate`` (so ``ints[i][j] == abs(c[i] - c[j])``), or an
    ultrametric's Prim order and keys, ``(order, keys)`` of
    ``_prim_certificate`` (its dendrogram); ``free_norm`` reads it.  All four
    are None on a space built by hand, and none takes part in equality or
    repr, so a space equals itself however built.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    approximate: bool = False
    ints: Optional[tuple[tuple[int, ...], ...]] = field(default=None, compare=False, repr=False)
    scale: Optional[int] = field(default=None, compare=False, repr=False)
    certificate: Optional[str] = field(default=None, compare=False, repr=False)
    structure: Optional[tuple] = field(default=None, compare=False, repr=False)

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


def _scan_ints(values: Sequence) -> tuple[list[int], int, int]:
    """``values`` (ints or Fractions) as the scans read them: ints, their scale and their slack.

    While the lcm of the denominators has at most ``_SCAN_BITS`` bits, it is
    the scale and the ints are exact (slack 0).  Past that the scale is
    2**_SCAN_BITS and each int the floor of its value times it, so a sum of
    floors may be off by less than the slack of 1: the scans flag what fails
    against bounds loosened by the slack and settle it on the Fractions.
    """
    try:
        return (*integer_scale(values, _SCAN_BITS), 0)
    except InvalidFamilyParameters:
        scale = 1 << _SCAN_BITS
        return [v.numerator * scale // v.denominator for v in values], scale, 1


class _ParseCache(dict):
    """String entry -> its ``as_fraction``, parsed on first lookup only."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = as_fraction(text)
        return value


def validate_metric(dist, approximate: bool = False) -> FiniteMetricSpace:
    """Check the metric axioms and return the validated space.

    Raises the first violated axiom with its witness indices, scanning
    symmetry row-major, then diagonal/positivity, then triples in
    lexicographic order (i, j, k) testing dist[i][k] <= dist[i][j] + dist[j][k]:
    after the symmetry check the upper triangle is scaled once
    (``_scan_ints``) and ``_checked_space`` does the rest.

    Entries are read in row-major order, so the first one that is no
    rational is the one reported.  ``Fraction`` entries are taken as they
    are, and each distinct string is parsed once: a file matrix repeats a few
    strings n^2 times.

    An ``approximate`` matrix (custom float input) is compared with
    ``FLOAT_TOLERANCE`` of slack, and the result is flagged approximate;
    entries are still stored as exact fractions of the given values,
    symmetrised from the upper triangle.
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
    tol = FLOAT_TOLERANCE if approximate else 0
    upper = []
    for i, j in combinations(range(n), 2):
        v, w = mat[i][j], mat[j][i]
        if v is not w and v != w and abs(v - w) > tol:
            raise Asymmetric(i, j)
        mat[j][i] = v
        upper.append(v)
    ints, scale, slack = _scan_ints(upper)
    return _checked_space(mat, distance_matrix(ints, n, slack), scale, slack, approximate)


def _checked_space(dist, ints, scale: int, slack: int, approximate: bool) -> FiniteMetricSpace:
    """The one check every validated space takes.

    ``dist`` is a symmetric matrix and ``ints`` its rows scaled by
    ``_scan_ints`` (or exactly, slack 0), with the slack on the diagonal: 1
    when rounded, which keeps k = i, k = j and j = i under the scan's bound.
    Row by row, a diagonal entry above the tolerance, then an entry right of
    the diagonal at or below it, raises NegativeOrZeroOffDiagonal; each entry
    left of the diagonal was read in an earlier row, so this is the order of
    a full row-major scan.  A diagonal entry within the tolerance is set to 0
    in place.  Then ``_certified`` runs once, and only if no certificate
    accepts the matrix does ``_triangle_scan`` look for the first violated
    triple.  The space keeps ``ints``, ``scale`` and the certificate's
    structure when the ints are exact, and which check accepted it.
    """
    exact_tol = FLOAT_TOLERANCE if approximate else 0
    tol = floor(exact_tol * scale)  # an int exceeds a bound iff it exceeds the bound's floor
    for i, row in enumerate(ints):
        if dist[i][i]:
            if abs(dist[i][i]) > exact_tol:
                raise NegativeOrZeroOffDiagonal(i, i)
            dist[i][i] = Fraction(0)
        if min(row[i + 1 :], default=tol + 1) <= tol:
            for j in range(i + 1, len(row)):
                if row[j] <= tol and dist[i][j] <= exact_tol:
                    raise NegativeOrZeroOffDiagonal(i, j)
    certificate, structure = _certified(ints, dist, slack)
    if certificate is None:
        _triangle_scan(ints, dist, tol - slack, exact_tol)
        certificate = "scan"
    if isinstance(dist, list):  # validate_metric's rows
        dist = tuple(map(tuple, dist))
    if slack:  # rounded ints are not kept, nor what was found on them
        ints = scale = structure = None
    return FiniteMetricSpace(dist, approximate, ints, scale, certificate, structure)


def _certified(ints, mat, slack) -> tuple[Optional[str], Optional[tuple]]:
    """The first certificate that accepts ``mat``, scaled to ``ints`` by
    ``_scan_ints`` ("line", "ultrametric", "neighbour", or None), and the
    structure the line or ultrametric certificate found."""
    coordinates = _line_certificate(mat if slack else ints)  # rounded ints are not exact
    if coordinates is not None:
        return "line", coordinates
    dendrogram = _ultrametric_certificate(ints, mat, slack)
    if dendrogram is not None:
        return "ultrametric", dendrogram
    if _neighbour_certificate(ints, slack):
        return "neighbour", None
    return None, None


def exact_space(dist, ints, scale: int, approximate: bool = False) -> FiniteMetricSpace:
    """The checked space of a symmetric zero-diagonal matrix ``dist`` that is
    exactly ``ints`` / ``scale``: on those ints when ``scale`` has at most
    ``_SCAN_BITS`` bits, else on one ``_scan_ints`` of its upper triangle."""
    if scale.bit_length() <= _SCAN_BITS:
        return _checked_space(dist, ints, scale, 0, approximate)
    n = len(dist)
    return scaled_space([dist[i][j] for i, j in combinations(range(n), 2)], n, approximate)


def _triangle_scan(ints, sym, int_tol, exact_tol) -> None:
    """``validate_metric``'s O(n^3) scan: raise TriangleViolation(i, j, k) for
    the first triple in lexicographic order with sym[i][k] > sym[i][j] +
    sym[j][k] + exact_tol.

    ``ints`` are the rows of ``sym`` scaled by ``_scan_ints``, with the slack
    on the diagonal, and ``int_tol`` the scaled tolerance less the slack;
    every triple they flag is settled on ``sym``.
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


def scaled_space(upper: Sequence[Fraction], n: int, approximate: bool = False) -> FiniteMetricSpace:
    """The checked space of ``distance_matrix(upper, n)``, scaled once by ``_scan_ints``."""
    ints, scale, slack = _scan_ints(upper)
    return _checked_space(distance_matrix(upper, n), distance_matrix(ints, n, slack), scale, slack, approximate)


def truncate(family: MetricFamily, N: int) -> FiniteMetricSpace:
    """Finite space on the family points x_1..x_N, base point x_1 relabelled 0.

    Each distance is fetched once and read as ``validate_metric`` reads its
    entries, and the matrix is scaled and checked once (``scaled_space``)."""
    if not 1 <= N <= MAX_POINTS:
        raise InvalidFamilyParameters(f"truncation size must be in 1..{MAX_POINTS}")
    if family.size is not None and N > family.size:
        raise InvalidFamilyParameters(
            f"family {family.label} has only {family.size} points"
        )
    upper = rational_distances([family.distance(i + 1, j + 1) for i, j in combinations(range(N), 2)])
    return scaled_space(upper, N, family.approximate)


def _line_certificate(rows) -> Optional[tuple]:
    """c when rows[i][j] = |c_i - c_j| for every i, j, where c = rows[a] and
    a is the point farthest from point 0; None otherwise.

    A matrix that passes is the metric of the points c_i on the real line.
    Every line metric passes: the point farthest from any point of a line is
    an end of its hull, so c_i is x_i measured from that end.
    """
    row_0 = rows[0]
    c = tuple(rows[row_0.index(max(row_0))])
    if all(list(row) == [abs(c_i - c_j) for c_j in c] for c_i, row in zip(c, rows)):
        return c
    return None


def _prim_certificate(rows) -> Optional[tuple]:
    """(p, k) when rows[p_t][p_s] = max(k_{s+1}, ..., k_t) for every s < t;
    None otherwise.

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
            return None
        order.append(t)
        reach = list(map(min, reach, row))
    return tuple(order), tuple(keys)


def _ultrametric_certificate(ints, mat, slack) -> Optional[tuple]:
    """``_prim_certificate`` on ``mat``, scaled to ``ints`` by ``_scan_ints``:
    Prim's order and keys on ``ints`` when it passes, else None.

    Exact ints (slack 0) decide alone.  Rounded ints are tested first all the
    same: rounding down is monotone, so it keeps an ultrametric one, and a
    matrix whose rounded ints fail is none; only a pass is settled on ``mat``.
    """
    dendrogram = _prim_certificate(ints)
    if dendrogram is None or (slack and _prim_certificate(mat) is None):
        return None
    return dendrogram


def _neighbour_certificate(ints, slack) -> bool:
    """Whether ints[i][k] + slack <= m_i + m_k for every i, k, where m_i is the
    least entry of row i off the diagonal.

    ``ints`` are a matrix scaled by ``_scan_ints``, with the slack on the
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
    lexicographic order with rho(x, y) > max(rho(x, z), rho(z, y)).  The
    check that validated the space decides where it can: Prim's certificate
    accepted an ultrametric, and a later certificate or the triangle scan ran
    only after it failed.  Any other space tries ``_ultrametric_certificate``,
    in O(n^2), and every space it does not accept takes the O(n^3) scan, which
    finds the witness.  Both read the space's ``ints`` when it has them, and
    ``_scan_ints`` of its entries otherwise.
    """
    if space.certificate == "ultrametric":
        return True, None
    d = space.dist
    if space.ints is None:
        n = len(d)
        flat, _, slack = _scan_ints([v for row in d for v in row])
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    else:
        rows, slack = space.ints, 0
    if space.certificate in (None, "line") and _ultrametric_certificate(rows, d, slack):
        return True, None
    return _ultrametric_scan(rows, d, slack)


def _ultrametric_scan(rows, d, slack):
    """``is_ultrametric``'s O(n^3) scan of ``d``; ``rows`` are ``d`` scaled
    by ``_scan_ints``, below it by less than ``slack``."""
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
    element); zero coefficients and duplicate indices are normalised away
    by ``from_pairs``.  A support built directly must already be in that
    form: int points strictly increasing from 1, each with a nonzero
    Fraction, or ValueError.
    """

    support: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        last = 0
        for p, c in self.support:
            if not isinstance(p, int) or p <= last:
                raise ValueError("support points must be ints strictly increasing from 1")
            if not isinstance(c, Fraction) or c == 0:
                raise ValueError("support coefficients must be nonzero Fractions")
            last = p

    @staticmethod
    def from_pairs(pairs) -> "FreeElement":
        acc: dict[int, Fraction] = {}
        for point, coef in pairs:
            point = int(point)
            if point < 0:
                raise ValueError("point indices must be nonnegative")
            c = as_fraction(coef)
            acc[point] = acc[point] + c if point in acc else c
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
