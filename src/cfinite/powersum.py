"""Power-sum forms of linear recurrences and their asymptotic content.

A power sum writes b_n = sum_j p_j(n) * alpha_j**n over distinct nonzero
roots alpha_j with nonzero polynomials p_j.  Rational roots are exact
(Fraction), from p-adic lifting, and the others complex floats from an
Aberth-Ehrlich iteration; the empty power sum evaluates to 0.  Root
multiplicities, and so the degrees of the p_j, come from an exact
squarefree decomposition, never from how close floats lie.

Also here: the dominant part (s, alpha, unit-circle terms) of a power sum,
the Vandermonde distance product, and the window lower bound
max_i |v(n+i)| >= prod|beta_v - beta_u| * max|gamma_j| / l!  obtained from
Cramer's rule, which is the computable content of the no-dominant-root
asymptotic argument.

This is the numeric and Binet tier, on the standard library alone; only
`binet_form` and the asymptotic checks need it.  The exact polynomial
arithmetic it builds on (`Polynomial`, `poly_gcd`, `linear_factor_product`)
lives in `gfseries`, so certificates and series never load this module;
`Polynomial` and `poly_gcd` stay importable from here as the same objects.
"""

import cmath
import math
from decimal import Context, Decimal, InvalidOperation, localcontext, MAX_EMAX, MIN_EMIN
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from ._record import Record
from .errors import ResourceLimitError, RootFindingError, SingularSystemError
from .gfseries import _is_exact, linear_factor_product, Polynomial
from .gfseries import poly_gcd as poly_gcd  # re-export: callers import it from here
from .recurrence import LinearRecurrence
from .seqcore import catalan_closed


ROOT_TOLERANCE = 1e-12  # numeric roots settle when no step moves one by more than this, relative
RECONSTRUCTION_TOLERANCE = 1e-6  # numeric power sums match b_n to this relative error
TIE_TOLERANCE = 1e-9  # relative modulus gap below which two roots tie for dominance
BETA_GAP_TOLERANCE = 1e-9  # unit-circle roots closer than this count as coincident
_WIDE = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)  # no overflow or underflow in reach


def characteristic_polynomial(rec: LinearRecurrence) -> Polynomial:
    """x**k - sum_{j<k} a_j x**j; monic of degree k (constant 1 for k = 0)."""
    coeffs = [-c for c in rec.coefficients] + [Fraction(1)]
    return Polynomial(tuple(coeffs))


def _log_derivative(coeffs, z: complex) -> complex:
    """f'(z) / f(z) for f = sum_i coeffs[i] x**i, with Decimal coefficients.

    The Horner sums run to 50 significant digits (a float holds about 16),
    so the ratio stays accurate where float values of f are rounding noise,
    as they are near a cluster of near-equal roots.
    """
    with localcontext(_WIDE):
        x, y = Decimal(z.real), Decimal(z.imag)
        pr = pi = qr = qi = Decimal(0)
        for c in reversed(coeffs):
            qr, qi = qr * x - qi * y + pr, qr * y + qi * x + pi
            pr, pi = pr * x - pi * y + c, pr * y + pi * x
        norm = pr * pr + pi * pi
        return complex(float((qr * pr + qi * pi) / norm), float((qi * pr - qr * pi) / norm))


def _value_mod(ints, x: int, m: int) -> int:
    """f(x) mod m for f = sum_i ints[i] t**i, by Horner's rule."""
    value = 0
    for c in reversed(ints):
        value = (value * x + c) % m
    return value


def _rational_roots(f: Polynomial) -> list:
    """Every rational root of f (exact, squarefree, f(0) != 0), found by
    p-adic lifting (Loos, SIAM J. Comput. 12, 1983) with no float.

    On f's primitive integer form, of degree d, a rational root r / q in
    lowest terms has r | f(0) and q | lc(f).  For the least prime p > 2 d
    that does not divide lc(f) and at which every root of f mod p is simple,
    r / q mod p is one of those roots, found by trying all p residues; it
    lifts uniquely, by Newton's steps, to a root mod M > 2 |f(0)| |lc(f)|,
    and rational reconstruction with |r| <= |f(0)|, 0 < q <= |lc(f)| gives
    back r / q.  A candidate counts only if sum_i c_i r**i q**(d-i) = 0.
    """
    ints, _ = linalg.clear_denominators(f.coeffs)  # f is monic, so this is primitive
    deriv = [i * c for i, c in enumerate(ints)][1:]
    p = 2 * f.degree
    while True:
        p += 1
        if ints[-1] % p and all(p % k for k in range(2, math.isqrt(p) + 1)):
            residues = [c % p for c in ints]
            lifts = [x for x in range(p) if _value_mod(residues, x, p) == 0]
            if all(_value_mod(deriv, x, p) for x in lifts):
                break
    num_bound, den_bound, m = abs(ints[0]), abs(ints[-1]), p
    while m <= 2 * num_bound * den_bound:
        m *= m
        lifts = [(x - _value_mod(ints, x, m) * pow(_value_mod(deriv, x, m), -1, m)) % m for x in lifts]
    roots = []
    for x in lifts:
        root = linalg.rational_reconstruction(x, m, num_bound, den_bound)
        if root is None:
            continue
        value, scale = 0, 1  # sum_i c_i r**i q**(d-i), by Horner's rule
        for c in reversed(ints):
            value, scale = value * root.numerator + c * scale, scale * root.denominator
        if value == 0:
            roots.append(root)
    return roots


def _aberth_roots(f: Polynomial) -> list:
    """Roots of f (exact, squarefree, f(0) != 0) by the Aberth-Ehrlich
    iteration (Aberth, Math. Comp. 27, 1973; Bini, Numer. Algorithms 13,
    1996): from one circle of start points per Newton polygon edge, each root
    z takes 1 / (f'(z)/f(z) - sum_j 1/(z - z_j)), Newton's step corrected by
    the others, until none moves by more than ROOT_TOLERANCE relative.  The
    sweeps run on float values of f, then on 50-digit ones, which keep
    near-equal roots apart where float rounding blurs them; convergence is
    cubic, so the last sweeps polish."""
    ints, _ = linalg.clear_denominators(f.coeffs)
    wide = [Decimal(c) for c in ints]
    try:
        floats = Polynomial(tuple(complex(c) for c in f.coeffs))
    except OverflowError:
        big = max(f.coeffs, key=abs)
        big = Decimal(big.numerator) / big.denominator  # str() refuses ints past 4,300 digits
        raise ResourceLimitError(f"polynomial coefficient {big:.6e} is past the float range") from None
    deriv = floats.derivative()
    hull = []  # Newton polygon: upper hull of the points (i, log|a_i|); Im(conj(u) v) = u x v
    for point in [complex(i, math.log(abs(c))) for i, c in enumerate(ints) if c]:
        while len(hull) > 1 and ((hull[-1] - hull[-2]).conjugate() * (point - hull[-2])).imag >= 0:
            hull.pop()
        hull.append(point)
    zs = []
    for a, b in zip(hull, hull[1:]):
        m = round(b.real - a.real)  # this edge stands for m roots of modulus about `radius`
        radius = math.exp((a.imag - b.imag) / m)
        zs += [radius * cmath.exp(2j * math.pi * (k / m + a.real / f.degree) + 0.4j) for k in range(m)]
    for log_derivative in (lambda z: deriv(z) / floats(z), lambda z: _log_derivative(wide, z)):
        # float rounding can leave a near-equal pair on a line that wide
        # sweeps never leave (Re z = c when f is even about c): start off it
        zs = [z * (1 + 1e-6 + 1e-6j) for z in zs]
        for _ in range(100):  # well-conditioned degree-64 factors take about 15 float sweeps
            moved = False
            for i, z in enumerate(zs):
                try:
                    step = 1 / (log_derivative(z) - sum(1 / (z - w) for j, w in enumerate(zs) if j != i))
                except (ZeroDivisionError, InvalidOperation):  # Decimal 0/0 is InvalidOperation
                    continue  # z is a root, or meets another iterate
                if cmath.isfinite(z - step):
                    zs[i] = z - step
                    moved = moved or abs(step) > ROOT_TOLERANCE * abs(zs[i])
            if not moved:
                break
    if moved:
        raise RootFindingError(
            f"the roots of a degree-{f.degree} factor did not settle in 100 wide sweeps"
        )
    return zs


def _squarefree_factors(p: Polynomial):
    """Yun's squarefree decomposition of an exact polynomial (SYMSAC 1976).

    Pairs (f, m) with p = c * prod f**m: each f monic, nonconstant and
    squarefree, the f pairwise coprime, the m increasing.
    """
    factors = []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    b = p // g
    d = dp // g - b.derivative()
    m = 1
    while b.degree >= 1:
        a = poly_gcd(b, d)
        if a.degree >= 1:
            factors.append((a, m))
        b = b // a
        d = d // a - b.derivative()
        m += 1
    return factors


def polynomial_roots(p: Polynomial):
    """All roots of an exact polynomial, with their multiplicities.

    The root 0 is split off as x**v; Yun's squarefree decomposition of the
    rest (over the exact poly_gcd) then fixes every multiplicity: each root
    of the factor f in p = c * prod f**m has multiplicity exactly m.  Every
    rational root of f comes from p-adic lifting (`_rational_roots`), before
    any float is computed, and is divided out exactly; the Aberth-Ehrlich
    iteration then runs once, on the exact quotient.  Exact roots come
    first, sorted; then the complex floats, sorted by (real, imag).  Raises
    ValueError for the zero polynomial or inexact coefficients, and
    RootFindingError when the iteration does not settle or a factor's roots
    are not distinct.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    if not p.is_exact():
        raise ValueError("root finding needs exact coefficients")
    v = next(i for i, c in enumerate(p.coeffs) if c != 0)
    exact = [(Fraction(0), v)] if v else []
    numeric = []
    for f, m in _squarefree_factors(Polynomial(p.coeffs[v:])):
        for root in _rational_roots(f):
            f = f // Polynomial((-root, 1))  # exact: the remainder is f(root) = 0
            exact.append((root, m))
        if f.degree >= 1:  # near-real roots are made real; f's roots are distinct
            roots = {complex(z.real) if abs(z.imag) <= 1e-10 * abs(z) else z for z in _aberth_roots(f)}
            if len(roots) != f.degree:
                raise RootFindingError(f"{len(roots)} distinct roots for a factor of degree {f.degree}")
            numeric += [(z, m) for z in roots]
    exact.sort(key=lambda rm: rm[0])
    numeric.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return exact + numeric


class PowerSum(Record):
    """Pairs (p_j, alpha_j) representing n -> sum_j p_j(n) * alpha_j**n.

    Roots are distinct and nonzero, polynomials nonzero; the empty tuple is
    the zero power sum.  valid_from marks the first index the represented
    sequence is guaranteed to match (greater than 1 when zero roots of the
    characteristic polynomial were dropped).
    """

    terms: tuple
    valid_from: int = 1

    def __post_init__(self):
        terms = tuple((poly, root) for poly, root in self.terms)
        for i, (poly, root) in enumerate(terms):
            if poly.is_zero:
                raise ValueError("power-sum polynomials must be nonzero")
            if root == 0:
                raise ValueError("power-sum roots must be nonzero")
            if any(root == other for _, other in terms[:i]):  # exact: 1 + 10^-20 is no float 1
                raise ValueError(f"duplicate power-sum root {root}")
        object.__setattr__(self, "terms", terms)

    @property
    def is_exact(self) -> bool:
        return all(
            poly.is_exact() and _is_exact(root) for poly, root in self.terms
        )


def evaluate_powersum(ps: PowerSum, n: int):
    """sum_j p_j(n) * alpha_j**n; exact when every root and coefficient is."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 0
    for poly, root in ps.terms:
        total = total + poly(n) * root**n
    return total


def _complex_solve(rows, rhs) -> list:
    """x with rows x = rhs, by Gaussian elimination pivoting on largest moduli."""
    n, a = len(rows), [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        top = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[top][col] == 0:
            raise SingularSystemError(f"numeric Vandermonde system is singular at column {col}")
        a[col], a[top] = a[top], a[col]
        for row in a[col + 1 :]:
            factor = row[col] / a[col][col]
            row[col:] = [x - factor * y for x, y in zip(row[col:], a[col][col:])]
    x = [0j] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    return x


def binet_form(rec: LinearRecurrence, initial_terms) -> PowerSum:
    """Power sum matching the recurrence with the given k initial terms.

    Roots come from the characteristic polynomial; a root of multiplicity m
    gets a polynomial of degree < m, solved from the k matching conditions
    (a confluent Vandermonde system).  Zero roots are dropped and
    valid_from shifts past them.  Exact throughout when every root is
    rational.
    """
    initial = tuple(initial_terms)
    if len(initial) != rec.order:
        raise ValueError(f"need {rec.order} initial terms, got {len(initial)}")
    if not rec.is_rational():
        raise ValueError("power-sum construction needs rational coefficients")
    if rec.order == 0:
        return PowerSum(())
    roots = polynomial_roots(characteristic_polynomial(rec))
    zero_mult = sum(m for r, m in roots if _is_exact(r) and r == 0)
    nonzero = [(r, m) for r, m in roots if not (_is_exact(r) and r == 0)]
    unknowns = sum(m for _, m in nonzero)
    if zero_mult + unknowns != rec.order:
        raise RootFindingError(
            f"root multiplicities sum to {zero_mult + unknowns}, not the order {rec.order}"
        )
    start = zero_mult + 1
    if unknowns == 0:
        return PowerSum((), valid_from=start)
    exact = all(_is_exact(r) for r, _ in nonzero)
    columns = [(j, t) for j, (_, m) in enumerate(nonzero) for t in range(m)]
    column_of = {jt: i for i, jt in enumerate(columns)}
    samples = range(start, start + unknowns)
    number = Fraction if exact else complex
    try:
        rows = [[number(n) ** t * number(nonzero[j][0]) ** n for j, t in columns] for n in samples]
    except OverflowError:
        big = max((r for r, _ in nonzero), key=abs)
        raise ResourceLimitError(
            f"root {big:.6g} to the power {samples[-1]} is past the float range"
        ) from None
    rhs = [number(initial[n - 1]) for n in samples]
    solution = linalg.solve(rows, rhs) if exact else _complex_solve(rows, rhs)
    if solution is None:
        raise SingularSystemError("confluent Vandermonde system is inconsistent")
    pairs = []
    for j, (root, mult) in enumerate(nonzero):
        coeffs = [solution[column_of[j, t]] for t in range(mult)]
        poly = Polynomial(tuple(coeffs))
        if poly.is_zero:
            continue  # this root contributes nothing for these initial terms
        pairs.append((poly, root))
    ps = PowerSum(tuple(pairs), valid_from=start)
    tolerance = 0 if exact else RECONSTRUCTION_TOLERANCE  # exact sums must match exactly
    for n in range(start, rec.order + 1):
        value, target = evaluate_powersum(ps, n), number(initial[n - 1])
        if not abs(value - target) <= tolerance * max(1, abs(target)):  # NaN fails too
            raise SingularSystemError(f"reconstruction failed at n={n}")
    return ps


class DominantPart(Record):
    """Leading asymptotic shape n**s * alpha**n * sum_j gamma_j beta_j**n.

    alpha is the maximum root modulus, s the top polynomial degree among
    roots attaining it, and the unit terms (gamma_j, beta_j) collect the
    degree-s leading coefficients over those roots; |beta_j| = 1 and the
    beta_j are distinct.
    """

    degree: int
    alpha: float
    unit_terms: tuple

    def __post_init__(self):
        if not self.unit_terms:
            raise ValueError("a dominant part needs at least one unit term")
        if any(g == 0 for g, _ in self.unit_terms):
            raise ValueError("unit-term coefficients must be nonzero")

    @property
    def l(self) -> int:
        return len(self.unit_terms)


def _float_modulus(root) -> float:
    """|root| as a float; ResourceLimitError naming the root when that reads
    0 or not finite: an exact root too small or too large for a float."""
    try:
        modulus = abs(complex(root))
    except OverflowError:
        modulus = math.inf
    if modulus == 0 or not math.isfinite(modulus):
        shown = Decimal(root.numerator) / root.denominator if _is_exact(root) else complex(root)
        raise ResourceLimitError(f"root {shown:.6e} has a modulus past the float range")
    return modulus


def dominant_part(ps: PowerSum) -> DominantPart:
    """Extract (s, alpha, unit terms) from a nonempty power sum."""
    if not ps.terms:
        raise ValueError("the empty power sum has no dominant part")
    moduli = [_float_modulus(root) for _, root in ps.terms]
    alpha = max(moduli)
    at_max = [
        (poly, root)
        for (poly, root), m in zip(ps.terms, moduli)
        if abs(m - alpha) <= TIE_TOLERANCE * alpha
    ]
    s = max(poly.degree for poly, _ in at_max)
    unit_terms = tuple(
        (complex(poly.coefficient(s)), complex(root) / alpha)
        for poly, root in at_max
        if poly.degree == s
    )
    return DominantPart(s, alpha, unit_terms)


def vandermonde_modulus(betas) -> float:
    """prod_{u<v} |beta_v - beta_u|; the empty product (one beta) is 1."""
    betas = [complex(b) for b in betas]
    product = 1.0
    for u in range(len(betas)):
        for v in range(u + 1, len(betas)):
            gap = abs(betas[v] - betas[u])
            if gap <= BETA_GAP_TOLERANCE:
                raise ValueError(f"coincident betas at positions {u} and {v}")
            product *= gap
    return product


class TailBound(NamedTuple):
    observed: float
    bound: float


def tail_lower_bound_check(dp: DominantPart, n: int) -> TailBound:
    """Window maximum of |v| against the Cramer/Vandermonde lower bound.

    v(m) = sum_j gamma_j beta_j**m.  Solving the l window equations for the
    gamma_j by Cramer's rule bounds every |gamma_j| by l! * max|v| divided
    by the Vandermonde distance product, so the window maximum
    max_{1<=i<=l} |v(n+i)| is at least
    prod|beta_v - beta_u| * max|gamma_j| / l!.
    """
    gammas = [g for g, _ in dp.unit_terms]
    betas = [b for _, b in dp.unit_terms]
    l = dp.l
    observed = max(
        abs(sum(g * b ** (n + i) for g, b in dp.unit_terms)) for i in range(1, l + 1)
    )
    bound = vandermonde_modulus(betas) * max(abs(g) for g in gammas) / math.factorial(l)
    return TailBound(observed, bound)


def falling_factorial(k: int) -> Polynomial:
    """(x)_k = x (x-1) ... (x-k+1); monic of degree k, with (x)_0 = 1."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return linear_factor_product((-i, 1) for i in range(k))


def catalan_asymptotic_constant(sample_index: int) -> float:
    """Estimate of c in C_n ~ c * n**(-3/2) * 4**n, namely C_N N**1.5 / 4**N.

    The huge-integer ratio C_N / 4**N is formed exactly and rounded to a
    float only once, so no intermediate overflows occur at any N.
    """
    if sample_index < 100:
        raise ValueError(f"need a sample index >= 100, got {sample_index}")
    ratio = Fraction(catalan_closed(sample_index), 4**sample_index)
    return float(ratio) * sample_index**1.5
