"""Exact linear algebra over arbitrary-precision integers.

Matrices are tuples of tuples (rows); vectors are tuples.  Everything here
is pure and allocation-cheap at desk scale (rank <= ~10); no floating point.

Everything is fraction-free, in Python ints.  `row_basis` is the one row
reduction; `rank`, `row_echelon` (an integer reduced echelon basis) and
`kernel_basis` are read off it.  `congruence_diagonal` is a Bareiss
elimination, cached per lattice as `GramLattice.congruence_diagonal`;
`adjugate` is one fraction-free Gauss-Jordan elimination of [M | I] and
refuses a singular M; `gram_schmidt_frame` holds each vector as integers
over one denominator.
Rational input (anything with `numerator` and `denominator`) has its
denominators cleared first.
"""

from __future__ import annotations

from math import gcd, lcm

from _operator import mul, neg

from .errors import InvalidParameter

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def to_int_matrix(rows: list[list[int]] | IntMat) -> IntMat:
    """Validate a rectangular matrix of Python ints (bools rejected).

    Raises InvalidParameter for anything else, including a matrix or a row
    that is not a sequence; the message names the first bad row or entry.
    """
    try:
        out = tuple(tuple(row) for row in rows)
    except TypeError:
        raise InvalidParameter("matrix must be a list of rows") from None
    width = len(out[0]) if out else 0
    for i, r in enumerate(out):
        if len(r) != width:
            raise InvalidParameter(
                f"row [{i}] has {len(r)} entries, row [0] has {width}: ragged matrix")
        for j, x in enumerate(r):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidParameter(f"entry [{i}][{j}] is {x!r}: entries must be integers")
    if width == 0:
        raise InvalidParameter("empty matrix")
    return out


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat):
    return tuple(zip(*mat))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_neg(v):
    return tuple(map(neg, v))


def dot(u, v):
    return sum(map(mul, u, v))


def pairing(gram, u, v):
    """u^T * gram * v, exact."""
    return sum(map(mul, u, mat_vec(gram, v)))


def matrix_power(m, k: int):
    """m^k by binary powering; the identity for k <= 0."""
    if k <= 0:
        return identity_matrix(len(m))
    base, out = tuple(map(tuple, m)), None
    while True:
        if k & 1:
            out = base if out is None else mat_mul(out, base)
        k >>= 1
        if not k:
            return out
        base = mat_mul(base, base)


def bareiss_det(mat) -> int:
    """Bareiss (fraction-free) determinant of an integer matrix."""
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
    """Transposed cofactor matrix of a nonsingular integer matrix:
    adj(M) M = det(M) I.

    One fraction-free Gauss-Jordan elimination of [M | I]: step k divides
    every entry exactly by the previous pivot, the left block ends as
    det(P M) I for the row swaps P, and the right block as det(P M) M^-1,
    which is adj(M) times the sign of P.  A singular M has no pivot at
    some step and raises ArithmeticError.
    """
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                raise ArithmeticError("singular matrix has no adjugate by elimination")
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                row = a[i]
                c = row[k]
                a[i] = [(x * pivot - c * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return tuple(tuple(x * sign for x in row[n:]) for row in a)


def clear_denominators(v) -> list[int]:
    """v times the lcm of its denominators: ints, or rationals with
    `numerator` and `denominator`.  Integer vectors pass through."""
    if all(type(x) is int for x in v):
        return list(v)
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v]


def primitive_vector(v) -> IntVec:
    """Clear denominators of a rational vector and divide out the gcd.

    The sign is kept as given; callers normalize orientation themselves.
    """
    ints = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


# -- integers -------------------------------------------------------------------

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| by trial division: (p, e) pairs with p
    increasing, empty for 0 and +-1."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, increasing."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


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
        v = clear_denominators(row)
        for p, b in basis:
            vp = v[p]
            if vp:
                bp = b[p]
                g = gcd(bp, vp)
                bp, vp = bp // g, vp // g
                v = [bp * x - vp * y for x, y in zip(v, b)]
        g = gcd(*v)
        if g:
            basis.append((_pivot(v), [x // g for x in v]))
            if len(basis) == ncols:
                break
    return [b for _, b in basis]


def _pivot(row) -> int:
    return next(c for c, x in enumerate(row) if x)


def row_echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Integer reduced echelon basis of the row space, and its pivot columns.

    `row_basis` again on its own rows, last pivot first: each row is then
    reduced at the pivots after its own, and is zero before it.  Row k,
    primitive with a positive pivot entry, is the k-th row of the reduced
    row echelon form over Q times that entry.
    """
    basis = row_basis(sorted(row_basis(rows), key=_pivot, reverse=True))[::-1]
    pivots = [_pivot(b) for b in basis]
    return [b if b[p] > 0 else [-x for x in b] for b, p in zip(basis, pivots)], pivots


def echelon_kernel(echelon, pivots, ncols: int) -> list[IntVec]:
    """Primitive integer kernel basis read off `row_echelon`'s result, one
    vector per free column in increasing order, with a positive entry
    there."""
    scale = lcm(*(row[p] for row, p in zip(echelon, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(echelon, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive_vector(vec))
    return basis


def rank(rows) -> int:
    return len(row_basis(rows))


def kernel_basis(rows) -> list[IntVec]:
    """Primitive integer basis of {x : rows * x = 0}, deterministic order."""
    if not rows:
        raise ValueError("kernel of empty row list is ambient; handle at caller")
    return echelon_kernel(*row_echelon(rows), len(rows[0]))


# -- symmetric forms ----------------------------------------------------------

def congruence_diagonal(gram) -> tuple[list[int], int]:
    """(diagonal, det G): the diagonal of a rational congruence
    diagonalization T^t G T, each entry d_k as the integer num * den of d_k
    in lowest terms (d_k's sign and squarefree class), and the determinant.

    Symmetric pivoting; a zero pivot with a nonzero off-diagonal partner is
    repaired by the symmetric completion step v_i <- v_i + v_j, which makes
    the pivot 2*G[i][j] != 0.  Bareiss elimination: the trailing block is
    the rational Schur complement times the previous pivot, held in
    integers, and each step divides exactly by that pivot (ArithmeticError
    if not); only the trailing block is read after each step.  Swaps and
    completions are unimodular congruences, so det T^t G T = det G, which
    is the last pivot, or 0 once a zero row is met.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    diag = []
    prev = 1
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
                    diag.append(0)
                    continue
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        pivot = a[k][k]
        g = gcd(pivot, prev)
        diag.append(pivot // g * (prev // g))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(a[i][j] * pivot - a[i][k] * a[k][j], prev)
                if r:
                    raise ArithmeticError("inexact Bareiss division in congruence_diagonal")
                a[i][j] = q
        prev = pivot
    return diag, 0 if 0 in diag else prev


def gram_schmidt_frame(gram, v0) -> list[tuple[IntVec, int]]:
    """Rational orthogonal frame starting from v0, extended by basis vectors.

    Returns n linearly independent pairwise gram-orthogonal vectors, each
    the integer vector u over the denominator d > 0 in lowest terms as a
    pair (u, d), with frame[0] = (v0, 1).  No normalization.  Basis vector
    e_i loses (e_i, f) / (f, f) f = (G u)_i / (u, u) u for each f = u / d.
    """
    n = len(gram)
    frame = [(tuple(v0), 1)]
    norms = [pairing(gram, v0, v0)]
    if norms[0] == 0:
        raise ValueError("frame seed must be anisotropic")
    for i in range(n):
        den = lcm(*norms)
        v = [den * (j == i) for j in range(n)]
        for (u, _), nu in zip(frame, norms):
            c = dot(gram[i], u) * (den // nu)
            v = [x - c * y for x, y in zip(v, u)]
        if any(v):
            g = gcd(den, *v)
            u = tuple(x // g for x in v)
            nu = pairing(gram, u, u)
            if nu == 0:
                raise ValueError("gram-schmidt hit an isotropic vector (degenerate input?)")
            frame.append((u, den // g))
            norms.append(nu)
        if len(frame) == n:
            break
    if len(frame) != n:
        raise ValueError("could not complete frame (degenerate form?)")
    return frame
