"""Exact linear algebra from two elimination loops.

`reduce_columns` is Gauss-Jordan elimination over a field with decidable
zero tests, fed one column at a time: each pivot step is recorded and
replayed on every later column, and no entry right of the current column
is touched.  The reduced row echelon form of a column prefix is the prefix
of the reduced form, so column c comes out final as soon as it is read and
a caller may stop early.  `kernel_vectors` reads a kernel vector off each
free column as it comes out; `guess_recurrence` (every order off one
pass), `kernel_basis`, `solve` and `iter_kernel_basis` read their answers
off it, the last lazily for callers that want one vector
(`kernel_nontrivial`, `pade_reconstruct`).  Entries may be int, Fraction,
or QuadraticFieldElement of one radicand; anything with exact +, -, *, /
and == 0 works.  While every entry read is rational, each replayed update
col[i] - f * top is built as one Fraction, normalized once instead of
twice (`_eliminate_rational`), and a new pivot's column is cleared by
writing Fraction(0), not by computing f - f * 1; the first other entry
sends the rest of the pass through the generic loop.  `_bareiss` is
fraction-free elimination of integer matrices, so `determinant` works over
Q only (rational rows are scaled to integers first); `hankel_minors`, its
other caller, serves `recurrence.hankel_evidence` and the tests' oracles for
certify's Catalan minors and for `hankel_screen`, the `guess_recurrence`
screen: an O(K^2) Chebyshev run over F_p, p = `PRIME` (the one modulus, which
gfseries' coprimality filter shares), that can prove the last minor nonzero.
Pivots are chosen leftmost-first in row order, so every routine is
deterministic; no magnitude pivoting is needed because arithmetic is exact.
"""

import math
from fractions import Fraction

from .errors import DimensionError, MixedRadicandError
from .seqcore import QuadraticFieldElement


def _entry(x):
    return Fraction(x) if isinstance(x, int) else x


def _eliminate_rational(col, multipliers, top):
    """col[i] - f * top for Fraction entries, normalized once per entry:
    a/b - (c/d)(e/g) is one Fraction (a·d·g - c·e·b) / (b·d·g), where
    computing the product and then the difference normalizes twice."""
    if top == 0:
        return
    tn, td = top.numerator, top.denominator
    for i, f in multipliers:
        a = col[i]
        ad, fd = a.denominator, f.denominator
        col[i] = Fraction(a.numerator * fd * td - f.numerator * tn * ad, ad * fd * td)


def reduce_columns(columns, height: int):
    """Gauss-Jordan elimination fed one column at a time.

    For each column of `height` entries, yields (its reduced entries, the
    row of its pivot, or None for a free column).  The reduced entries are
    that column of the reduced row echelon form of the columns read so far.
    Each pivot step (its row, the row swapped into it, the pivot and the
    nonzero multipliers) is replayed on every later column, so a column
    costs one replay and the columns after it are never read.  While every
    entry read so far is a Fraction (ints are read as Fractions), so is
    every pivot and multiplier, each update col[i] - f * top is built as
    one Fraction, and the new pivot's column gets Fraction(0) off its pivot
    row; Fractions are canonical, so the values and types are those of the
    generic loop.  From the first other entry on (Q(sqrt(d))
    data, mixed matrices) the steps may carry field elements, and the pass
    runs the generic loop to its end.
    """
    steps = []
    rational = True
    for column in columns:
        col = [_entry(x) for x in column]
        if len(col) != height:
            raise DimensionError(f"column of length {len(col)}, expected {height}")
        rational = rational and all(type(x) is Fraction for x in col)
        for row, swap, pivot, multipliers in steps:
            col[row], col[swap] = col[swap], col[row]
            top = col[row] = col[row] / pivot
            if rational:
                _eliminate_rational(col, multipliers, top)
                continue
            for i, f in multipliers:
                col[i] = col[i] - f * top
        r = len(steps)
        pivot_row = next((i for i in range(r, height) if col[i] != 0), None)
        if pivot_row is None:
            yield col, None
            continue
        col[r], col[pivot_row] = col[pivot_row], col[r]
        pivot = col[r]
        top = col[r] = pivot / pivot
        multipliers = [(i, col[i]) for i in range(height) if i != r and col[i] != 0]
        for i, f in multipliers:
            col[i] = Fraction(0) if rational else col[i] - f * top
        steps.append((r, pivot_row, pivot, multipliers))
        yield col, r


def kernel_vectors(columns, height: int):
    """For each free column c of the column pass, in order, yields (c, v):
    v has length c + 1, v[c] = 1, v[p] = -(c's entry in p's pivot row) for
    each pivot column p < c, and Fraction(0) elsewhere, so the first c + 1
    columns times v are zero.  Columns after the last one read stay unread."""
    pivots = []
    for c, (col, pivot_row) in enumerate(reduce_columns(columns, height)):
        if pivot_row is not None:
            pivots.append(c)
            continue
        v = [Fraction(0)] * c + [Fraction(1)]
        for i, p in enumerate(pivots):
            v[p] = -col[i]
        yield c, v


def _columns(rows, width: int):
    """The columns of `rows`, refusing ragged rows and entries of two radicands."""
    for row in rows:
        if len(row) != width:
            raise DimensionError(f"row of length {len(row)}, expected {width}")
    radicands = {x.radicand for row in rows for x in row if isinstance(x, QuadraticFieldElement)}
    if len(radicands) > 1:
        raise MixedRadicandError(f"entries mix radicands {sorted(radicands)}")
    return [[row[c] for row in rows] for c in range(width)]


def iter_kernel_basis(rows, width: int):
    """The vectors of `kernel_basis`, one at a time: the columns after the
    free column of the last vector drawn stay unread."""
    for c, v in kernel_vectors(_columns(rows, width), len(rows)):
        yield tuple(v + [Fraction(0)] * (width - 1 - c))


def kernel_basis(rows, width: int):
    """Basis of the right kernel, one vector per free column, in column order."""
    return list(iter_kernel_basis(rows, width))


def solve(rows, rhs):
    """One exact solution of rows * x = rhs (free variables set to 0).

    Returns None when the system is inconsistent: the rhs column pivots.
    """
    if len(rows) != len(rhs):
        raise DimensionError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    width = len(rows[0]) if rows else 0
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    for c, v in kernel_vectors(_columns(augmented, width + 1), len(rows)):
        if c == width:
            return tuple(-x for x in v[:width])
    return None


def _bareiss(mat, exchange: bool):
    """Fraction-free elimination of an integer matrix, in place.

    Returns (pivots, sign).  Every intermediate entry is an exact minor, so
    no rational normalization happens, and pivot c is the determinant of
    the leading (c+1) x (c+1) block of the (row-exchanged) matrix; without
    exchanges these are the leading principal minors (Bareiss, Math. Comp.
    22, 1968).  Elimination stops after the first zero pivot, which ends
    the list: the minors past it are not determined by this pass.
    """
    n = len(mat)
    sign = 1
    prev = 1
    pivots = []
    for c in range(n):
        if exchange:
            pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), c)
            if pivot_row != c:
                mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
                sign = -sign
        top = mat[c]
        pivot = top[c]
        pivots.append(pivot)
        if pivot == 0:
            break
        tail = top[c + 1 :]
        for i in range(c + 1, n):
            row = mat[i]
            lead = row[c]
            row[c + 1 :] = [(pivot * x - lead * y) // prev for x, y in zip(row[c + 1 :], tail)]
            row[c] = 0
        prev = pivot
    return pivots, sign


def _hankel_order(terms) -> int:
    """K for 2K + 1 integer terms; refuses an even count and non-integers."""
    if len(terms) % 2 == 0:
        raise DimensionError(f"need an odd number of terms, got {len(terms)}")
    if not all(isinstance(x, int) for x in terms):
        raise TypeError("hankel minors need integer terms")
    return len(terms) // 2


def hankel_minors(terms) -> list:
    """Leading principal minors of the Hankel matrix (terms[i+j]), i, j = 0..K,
    of 2K + 1 integer terms, from one pass: entry k is the order-k window
    determinant, and the list ends at the first zero minor (see _bareiss)."""
    order = _hankel_order(terms)
    pivots, _ = _bareiss([list(terms[i : i + order + 1]) for i in range(order + 1)], exchange=False)
    return pivots


# 2^61 - 1: the one modulus of the mod-p filters here and in gfseries
PRIME = (1 << 61) - 1


def hankel_screen(terms) -> bool:
    """True proves hankel_minors(terms)[-1] != 0 in O(K^2) word operations;
    False decides nothing.  It runs the Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials, 2004, sec. 2.1.7) on the moments terms[l] over
    F_p, p = PRIME: over any field, its diagonal sigma_{k,k} gives the
    leading minors (entry k of hankel_minors) as H_k = prod_{i<=k}
    sigma_{i,i}, up to the first zero sigma_{k,k}.  The exact minors form a
    prefix of nonzero values, and the run reduces that prefix mod p (a
    determinant's residue is the determinant of the residues): if every
    sigma_{k,k}, k <= K, is nonzero mod p, so is every H_k, hence H_k != 0
    over Z.  A zero residue (a zero minor, or one that p divides) is
    undecided.
    """
    _hankel_order(terms)
    p = PRIME
    older, row = [0] * len(terms), [x % p for x in terms]  # sigma_{k-1,k-1+j}, sigma_{k,k+j}
    ratio, inv = 0, 1  # sigma_{k-1,k}/sigma_{k-1,k-1} and 1/sigma_{k-1,k-1}
    while row[0]:
        if len(row) == 1:
            return True
        beta = row[0] * inv % p  # beta_k = sigma_{k,k}/sigma_{k-1,k-1}
        inv = pow(row[0], -1, p)
        alpha = (row[1] * inv - ratio) % p  # alpha_k = sigma_{k,k+1}/sigma_{k,k} - ratio
        ratio = (ratio + alpha) % p
        # sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l}
        older, row = row, [(x - alpha * y - beta * z) % p for x, y, z in zip(row[2:], row[1:], older[2:])]
    return False


def rational_reconstruction(a: int, m: int, num_bound: int, den_bound: int):
    """r / q in lowest terms with r == a q (mod m), |r| <= num_bound and
    0 < q <= den_bound, or None: Wang's extended Euclidean algorithm on
    (m, a), stopped at the first remainder <= num_bound (von zur Gathen &
    Gerhard, Modern Computer Algebra, sec. 5.10), finds it whenever one with
    q prime to m exists and 2 num_bound den_bound < m, which make it unique.
    """
    r0, t0, r1, t1 = m, 0, a % m, 1
    while r1 > num_bound:
        quotient = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - quotient * r1, t0 - quotient * t1
    return Fraction(r1, t1) if abs(t1) <= den_bound and math.gcd(r1, t1) == 1 else None


def clear_denominators(values):
    """Integers proportional to int / Fraction values, and the scale used.

    Returns (ints, scale) with ints[i] == values[i] * scale, where scale is
    the lcm of the denominators (1 for an empty list).  Any other entry
    type raises TypeError.
    """
    values = list(values)
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"need int or Fraction entries, got {type(x).__name__}")
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def determinant(matrix) -> Fraction:
    """Exact determinant of a square int / Fraction matrix.

    Each row is scaled to integers by the lcm of its denominators, the
    integer matrix goes through fraction-free (Bareiss) elimination, and the
    scales are divided out again.  Any other entry type raises TypeError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionError(f"{n} rows of lengths {[len(row) for row in matrix]}: not square")
    if n == 0:
        return Fraction(1)
    cleared = [clear_denominators(row) for row in matrix]
    pivots, sign = _bareiss([ints for ints, _ in cleared], exchange=True)
    return Fraction(sign * pivots[-1], math.prod(scale for _, scale in cleared))
