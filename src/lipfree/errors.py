"""Domain errors.

Every error carries a stable ``name`` (its class name) that the CLI prints
on stderr, plus the witness data of the violated condition.
"""

from __future__ import annotations


class LipfreeError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class Asymmetric(LipfreeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")


class NegativeOrZeroOffDiagonal(LipfreeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        if i == j:
            super().__init__(f"dist[{i}][{i}] must be zero")
        else:
            super().__init__(f"dist[{i}][{j}] must be positive")


class TriangleViolation(LipfreeError):
    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}]")


class InvalidFamilyParameters(LipfreeError):
    pass


class EmptyLevels(LipfreeError):
    pass


class InvalidTriple(LipfreeError):
    pass


class DegeneratePair(LipfreeError):
    pass


class TooFewPoints(LipfreeError):
    pass


class PointOutsideSpace(LipfreeError):
    def __init__(self, point: int, n: int):
        self.point, self.n = point, n
        super().__init__(f"point {point} outside space of size {n}")


class SeparationViolation(LipfreeError):
    def __init__(self, m: int, n: int, r_sum=None, rho=None):
        self.m, self.n = m, n
        self.r_sum, self.rho = r_sum, rho
        detail = "" if r_sum is None else f": r_{m}+r_{n} = {r_sum} > {rho} = rho(x_{m},x_{n})"
        super().__init__(f"separation fails at positions ({m}, {n}){detail}")


class ExactnessRequired(LipfreeError):
    pass


class NotConvergent(LipfreeError):
    pass


class MetadataRequired(LipfreeError):
    pass


class HorizonExhausted(LipfreeError):
    pass


class NotUltrametric(LipfreeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"strong triangle inequality fails at triple {witness}")
