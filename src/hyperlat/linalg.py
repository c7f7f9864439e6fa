"""Exact linear algebra over arbitrary-precision integers and rationals.

Matrices are tuples of tuples (rows); vectors are tuples.  Everything here
is pure and allocation-cheap at desk scale (rank <= ~10); no floating point.

Fraction-free (Python ints only): the products `mat_mul`, `mat_vec`, `dot`
and `pairing`, `bareiss_det`, `adjugate`, `primitive_vector`, and the row
basis behind `rank`, `row_echelon` and `kernel_basis`.  Rational input rows
have their denominators cleared first.

`gauss_jordan` is the one Gauss-Jordan elimination, over any exact field,
and `rref_kernel` reads a kernel basis off its result.  Over Q,
`row_echelon` runs it only on the at most ncols rows of the integer row
basis; `isometry` runs it over the scale's field Q(lambda).
`congruence_diagonal`, `gram_schmidt_frame` and `frac_pairing` work over
`Fraction`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def to_int_matrix(rows: Sequence[Sequence[int]]) -> IntMat:
    """Validate a rectangular matrix of Python ints (bools rejected)."""
    out = []
    width = None
    for row in rows:
        r = tuple(row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entry {x!r} is not an exact integer")
        out.append(r)
    if not out or width == 0:
        raise ValueError("empty matrix")
    return tuple(out)


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat):
    return tuple(zip(*mat))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_neg(v):
    return tuple(-x for x in v)


def dot(u, v):
    return sum(map(mul, u, v))


def pairing(gram, u, v):
    """u^T * gram * v, exact."""
    return sum(map(mul, u, mat_vec(gram, v)))


def matrix_power(m, k: int):
    n = len(m)
    out = identity_matrix(n)
    base = m
    e = k
    while e > 0:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def bareiss_det(mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(mat) -> IntMat:
    """Transposed cofactor matrix of an integer matrix: adj(M) M = det(M) I."""
    n = len(mat)
    if n == 1:
        return ((1,),)
    minors = [[[r[:j] + r[j + 1:] for r in mat[:i] + mat[i + 1:]] for j in range(n)]
              for i in range(n)]
    return tuple(tuple((-1) ** (i + j) * bareiss_det(minors[j][i]) for j in range(n))
                 for i in range(n))


def vec_content(v) -> int:
    return gcd(*v)


def clear_denominators(v) -> tuple[list[int], int]:
    """(ints, den) with v = ints / den and den the lcm of v's denominators.

    Integer vectors pass through with den = 1.
    """
    if all(type(x) is int for x in v):
        return list(v), 1
    fracs = [Fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def primitive_vector(v) -> IntVec:
    """Clear denominators of a rational vector and divide out the gcd.

    The sign is kept as given; callers normalize orientation themselves.
    """
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


# -- elimination ----------------------------------------------------------------

def row_basis(rows) -> list[list[int]]:
    """Primitive integer basis of the row space, by fraction-free elimination.

    Each row, denominators cleared, is reduced against the basis so far in
    insertion order: v <- b[p] v - v[p] b at basis row b's pivot p.  A basis
    row is zero at the pivots of the rows before it, so every reduced row is
    zero at all pivots; a nonzero one joins the basis, divided by its
    content, with its first nonzero column as pivot.  Stops once the basis
    has ncols rows.
    """
    basis: list[tuple[int, list[int]]] = []
    if not rows:
        return []
    ncols = len(rows[0])
    for row in rows:
        v, _ = clear_denominators(row)
        for p, b in basis:
            vp = v[p]
            if vp:
                bp = b[p]
                g = gcd(bp, vp)
                bp, vp = bp // g, vp // g
                v = [bp * x - vp * y for x, y in zip(v, b)]
        g = gcd(*v)
        if g:
            basis.append((next(c for c, x in enumerate(v) if x), [x // g for x in v]))
            if len(basis) == ncols:
                break
    return [b for _, b in basis]


def gauss_jordan(rows):
    """Reduced row echelon form over any field; returns (rref rows, pivot columns).

    Entries need +, -, *, 1 / x and a truth value that is false exactly at
    zero, as `Fraction` and `polynomials.AlgebraicNumber` have.  Pivots are
    tested by truth value: `x != 0` on an algebraic number would first build
    the field's zero.
    """
    a = [list(row) for row in rows]
    if not a:
        return [], []
    pivots = []
    r = 0
    for c in range(len(a[0])):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rref_kernel(rref, pivots, ncols: int, zero=0, one=1) -> list[list]:
    """Kernel basis read off a reduced row echelon form, one vector per free
    column in increasing order; `zero` and `one` are the field's constants."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def row_echelon(rows):
    """Reduced row echelon form over Q; returns (rref rows, pivot column indices).

    The RREF depends only on the row space, so `gauss_jordan` runs on the
    integer `row_basis`, at most ncols rows.
    """
    return gauss_jordan([[Fraction(x) for x in row] for row in row_basis(rows)])


def rank(rows) -> int:
    return len(row_basis(rows))


def kernel_basis(rows) -> list[IntVec]:
    """Primitive integer basis of {x : rows * x = 0}, deterministic order."""
    if not rows:
        raise ValueError("kernel of empty row list is ambient; handle at caller")
    return [primitive_vector(v) for v in rref_kernel(*row_echelon(rows), len(rows[0]))]


# -- symmetric forms ----------------------------------------------------------

def congruence_diagonal(gram) -> list[Fraction]:
    """Diagonal of a rational congruence diagonalization T^t G T.

    Symmetric pivoting; a zero pivot with a nonzero off-diagonal partner is
    repaired by the symmetric completion step v_i <- v_i + v_j, which makes
    the pivot 2*G[i][j] != 0.  Deterministic.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    diag = []
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                # symmetric swap of basis vectors k and j
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    diag.append(Fraction(0))
                    continue
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        pivot = a[k][k]
        diag.append(pivot)
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pivot
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in range(n):
                    a[row][i] -= f * a[row][k]
    return diag


def signature_of_gram(gram) -> tuple[int, int]:
    """(positive, negative) inertia counts of a nondegenerate symmetric matrix."""
    diag = congruence_diagonal(gram)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg


def gram_schmidt_frame(gram, v0) -> list[tuple[Fraction, ...]]:
    """Rational orthogonal frame starting from v0, extended by basis vectors.

    Returns n linearly independent pairwise gram-orthogonal vectors with
    frame[0] = v0.  No normalization (norms stay rational).
    """
    n = len(gram)
    frame: list[tuple[Fraction, ...]] = [tuple(Fraction(x) for x in v0)]
    norms = [frac_pairing(gram, frame[0], frame[0])]
    if norms[0] == 0:
        raise ValueError("frame seed must be anisotropic")
    for i in range(n):
        e = [Fraction(1 if j == i else 0) for j in range(n)]
        v = list(e)
        for f, nf in zip(frame, norms):
            c = frac_pairing(gram, e, f) / nf
            v = [x - c * y for x, y in zip(v, f)]
        if any(x != 0 for x in v):
            nv = frac_pairing(gram, v, v)
            if nv == 0:
                raise ValueError("gram-schmidt hit an isotropic vector (degenerate input?)")
            frame.append(tuple(v))
            norms.append(nv)
        if len(frame) == n:
            break
    if len(frame) != n:
        raise ValueError("could not complete frame (degenerate form?)")
    return frame


def frac_pairing(gram, u, v) -> Fraction:
    return sum(Fraction(u[i]) * sum(Fraction(gram[i][j]) * Fraction(v[j])
               for j in range(len(v))) for i in range(len(u)))
