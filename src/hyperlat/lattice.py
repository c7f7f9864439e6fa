"""Integral lattices: exact Gram matrices, signatures, and standard blocks.

A lattice here is Z^n with an integral nondegenerate symmetric bilinear
form, represented by its Gram matrix; GramLattice.pair evaluates the form.
A lattice vector is a plain tuple of ints, and every function that takes
one accepts any int sequence of the lattice's rank.
All arithmetic is arbitrary precision and exact.  One rational congruence
diagonalization per lattice, a Bareiss elimination, gives the signature,
the rational diagonal and the determinant, never numerical eigenvalues;
it runs once, when `build_lattice` checks the determinant, and is cached.
"""

from __future__ import annotations

from . import linalg
from .errors import Degenerate, DimensionMismatch, InvalidParameter, NotSymmetric
from .record import Record, cached_property


class GramLattice(Record):
    """An integral nondegenerate symmetric bilinear form on Z^rank."""

    def __init__(self, gram: linalg.IntMat, rank: int):
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rank", rank)

    def pair(self, u, v) -> int:
        if len(u) != self.rank or len(v) != self.rank:
            raise DimensionMismatch(f"vectors must have length {self.rank}")
        return linalg.pairing(self.gram, u, v)

    def norm(self, v) -> int:
        return self.pair(v, v)

    @cached_property
    def _elimination(self) -> tuple[tuple[int, ...], int]:
        """`linalg.congruence_diagonal` of the Gram matrix: the one
        elimination that gives the diagonal and the determinant."""
        diag, det = linalg.congruence_diagonal(self.gram)
        return tuple(diag), det

    @cached_property
    def determinant(self) -> int:
        return self._elimination[1]

    @cached_property
    def adjugate(self) -> linalg.IntMat:
        """adj(G) = det(G) G^-1, an integer matrix."""
        return linalg.adjugate(self.gram)

    @cached_property
    def congruence_diagonal(self) -> tuple[int, ...]:
        """The rational diagonal of the Gram matrix, which the signature and
        the rational tests of `forms` read."""
        return self._elimination[0]

    @cached_property
    def signature(self) -> tuple[int, int]:
        """Inertia (p, q) of the form; p + q = rank by nondegeneracy."""
        diag = self.congruence_diagonal
        p = sum(1 for d in diag if d > 0)
        q = sum(1 for d in diag if d < 0)
        if p + q != self.rank:
            raise ArithmeticError("inertia counts do not add up to the rank")
        return p, q

    def __repr__(self):
        return f"GramLattice(rank={self.rank}, gram={[list(r) for r in self.gram]})"


def build_lattice(gram: list[list[int]] | linalg.IntMat) -> GramLattice:
    """Validate and wrap a Gram matrix.

    Raises NotSymmetric for asymmetric input and Degenerate when the
    determinant vanishes.
    """
    mat = linalg.to_int_matrix(gram)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise NotSymmetric("gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    lattice = GramLattice(gram=mat, rank=n)
    if lattice.determinant == 0:
        raise Degenerate("gram matrix has determinant 0")
    return lattice


def direct_sum(l1: GramLattice, l2: GramLattice) -> GramLattice:
    """Orthogonal (block-diagonal) sum."""
    n1, n2 = l1.rank, l2.rank
    rows = []
    for i in range(n1):
        rows.append(tuple(l1.gram[i]) + (0,) * n2)
    for i in range(n2):
        rows.append((0,) * n1 + tuple(l2.gram[i]))
    return GramLattice(gram=tuple(rows), rank=n1 + n2)


# Cartan matrices of the simply laced root systems used by the criteria
# families; stored positive definite, negated on demand.
_CARTAN = {
    "A2": ((2, -1), (-1, 2)),
    "D4": ((2, -1, 0, 0),
           (-1, 2, -1, -1),
           (0, -1, 2, 0),
           (0, -1, 0, 2)),
    "E8": ((2, -1, 0, 0, 0, 0, 0, 0),
           (-1, 2, -1, 0, 0, 0, 0, 0),
           (0, -1, 2, -1, 0, 0, 0, -1),
           (0, 0, -1, 2, -1, 0, 0, 0),
           (0, 0, 0, -1, 2, -1, 0, 0),
           (0, 0, 0, 0, -1, 2, -1, 0),
           (0, 0, 0, 0, 0, -1, 2, 0),
           (0, 0, -1, 0, 0, 0, 0, 2)),
}


def standard_lattice(name: str) -> GramLattice:
    """Standard building blocks: U, A2, D4 and E8.

    Root lattices come out negative definite (root norm -2) because the
    hyperbolic lattices assembled from them have signature (1, n).
    """
    key = name.upper()
    if key == "U":
        return build_lattice([[0, 1], [1, 0]])
    if key in _CARTAN:
        return build_lattice([[-x for x in row] for row in _CARTAN[key]])
    raise InvalidParameter(f"unknown standard lattice {name!r}")


def rank1(m: int) -> GramLattice:
    """The rank-one lattice <m>."""
    if m == 0:
        raise InvalidParameter("rank1 lattice needs a nonzero integer m")
    return build_lattice([[m]])

