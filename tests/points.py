"""One-point oracles of the tests: the Pluecker vector and the dual
coordinates of a matrix representative, random full-rank representatives,
invertible matrices, duality maps and GLSM points, and the section on a
fiber point.  The package itself works on grids of polynomials and on numpy
blocks of points, and draws no maps or GLSM points."""
import random

from flagdual.exactalg import Field, Mat, minors
from flagdual.glsm import GLSMPoint
from flagdual.grassflag import DualityMap, SectionMatrix, to_dual


def pluecker(rep: Mat) -> tuple:
    """Ordered maximal minors of a 5x2 or 5x3 representative matrix."""
    if rep.rows != 5 or rep.cols not in (2, 3):
        raise ValueError("representative must be 5x2 or 5x3")
    return tuple(rep.field.coerce(row[0]) for row in minors(rep.data, rep.cols))


def dual_coordinates(B: Mat) -> tuple:
    """Coordinates of a G(3,5) representative in wedge^2 V5* (pair-indexed),
    i.e. D applied to its Pluecker vector."""
    return tuple(map(B.field.coerce, to_dual(pluecker(B))))


def random_grass_point(field: Field, k: int, rng: random.Random) -> Mat:
    """A full-rank 5 x k representative: ``Mat.random`` draws, redrawn while
    every Pluecker coordinate is 0."""
    while True:
        rep = Mat.random(field, 5, k, rng)
        if any(pluecker(rep)):
            return rep


def section_on_fiber(S: SectionMatrix, A: Mat, w):
    """s([A], [A|w]): the section evaluated on the fiber point over [A]."""
    B = A.augment(Mat(S.field, [[x] for x in w]))
    return S.evaluate(pluecker(A), dual_coordinates(B))


def random_invertible(field: Field, n: int, rng: random.Random) -> Mat:
    """An invertible n x n matrix: ``Mat.random`` draws, redrawn while singular."""
    while True:
        m = Mat.random(field, n, n, rng)
        if m.rank() == n:
            return m


def random_duality_map(field: Field, rng: random.Random) -> DualityMap:
    return DualityMap(random_invertible(field, 5, rng))


def random_point(field: Field, rng: random.Random) -> GLSMPoint:
    """A uniform GLSM point (B, omega) over GF(q)."""
    return GLSMPoint(Mat.random(field, 5, 3, rng),
                     tuple(field.rand(rng) for _ in range(3)))
