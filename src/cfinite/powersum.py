"""Power-sum forms of linear recurrences and their asymptotic content.

A power sum writes b_n = sum_j p_j(n) * alpha_j**n over distinct nonzero
roots alpha_j with nonzero polynomials p_j.  Roots are kept exact
(Fraction) whenever the rational-root stage finds them, and polished
complex floats otherwise; the empty power sum evaluates to 0.

Also here: the dominant part (s, alpha, unit-circle terms) of a power sum,
the Vandermonde distance product, and the window lower bound
max_i |v(n+i)| >= prod|beta_v - beta_u| * max|gamma_j| / l!  obtained from
Cramer's rule, which is the computable content of the no-dominant-root
asymptotic argument.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import RootFindingError, SingularSystemError
from .recurrence import LinearRecurrence
from .seqcore import catalan_closed


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def convolve(x, y, length: int) -> list:
    """Coefficients 0..length-1 of the product of coefficient lists x and y.

    Zero coefficients of the outer operand x are skipped, so passing the
    shorter or sparser operand as x does the least work.
    """
    out = [0] * length
    for i, a in enumerate(x[:length]):
        if a == 0:
            continue
        end = min(length, i + len(y))
        out[i:end] = [c + a * b for c, b in zip(out[i:end], y)]
    return out


class Polynomial:
    """Dense univariate polynomial; coefficients low order first.

    Coefficients are exact (int / Fraction) or complex floats.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, complex, float)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        outer, inner = self.coeffs, other.coeffs
        if len(outer) > len(inner):
            outer, inner = inner, outer
        return Polynomial(convolve(outer, inner, len(outer) + len(inner) - 1))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.leading
        if _is_exact(lead):
            lead = Fraction(lead)  # keep int coefficient division exact
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Polynomial(tuple(quot)), Polynomial(tuple(rem[: other.degree]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return Polynomial(tuple(Fraction(c) / lead if _is_exact(c) else c / lead for c in self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if not self.is_exact():
            return " + ".join(
                f"({c})*x^{i}" if i else f"({c})"
                for i, c in enumerate(self.coeffs)
                if c != 0
            )
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _primitive_ints(poly: Polynomial) -> list:
    """Integer coefficients of the primitive part, positive leading term."""
    ints, _ = linalg.clear_denominators(poly.coeffs)
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_mod(fa: list, fb: list) -> list:
    """Primitive remainder of fa modulo fb, up to scalars, integers only.

    Scaling by the leading coefficient instead of dividing keeps every step
    in the integers; the content is stripped after each elimination so the
    coefficients stay small.  Scalars do not matter for gcd purposes.
    """
    rem = list(fa)
    lead = fb[-1]
    while len(rem) >= len(fb):
        top = rem.pop()
        if top == 0:
            continue
        rem = [lead * r for r in rem]
        shift = len(rem) - (len(fb) - 1)
        for j, b in enumerate(fb[:-1]):
            rem[shift + j] -= top * b
        if any(rem):
            g = math.gcd(*rem)
            rem = [r // g for r in rem]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


# Any prime > all interesting degrees works for the coprimality filter; a
# fixed 61-bit Mersenne prime keeps the reduction in machine-assisted ints.
_FILTER_PRIME = (1 << 61) - 1


def _coprime_mod_prime(fa: list, fb: list) -> bool:
    """True only when gcd(fa, fb) over Q is provably constant.

    If the prime divides neither leading coefficient, the gcd degree over Q
    is at most the gcd degree mod the prime, so a constant modular gcd
    certifies coprimality.  Returns False when inconclusive.
    """
    p = _FILTER_PRIME
    if fa[-1] % p == 0 or fb[-1] % p == 0:
        return False
    a = [c % p for c in fa]
    b = [c % p for c in fb]
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return len(a) == 1
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, p)
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] * inv % p
            if c:
                for j, bc in enumerate(b):
                    a[i + j] = (a[i + j] - c * bc) % p
        a, b = b, a[: len(b) - 1]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals.

    Coprimality (the generic case) is certified by a cheap modular filter;
    otherwise a primitive pseudo-remainder sequence runs over the integers.
    The naive Euclidean algorithm on Fraction coefficients blows up
    coefficient sizes already around degree 100.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if not (a.is_exact() and b.is_exact()):
        raise ValueError("polynomial gcd needs exact coefficients")
    fa, fb = _primitive_ints(a), _primitive_ints(b)
    if len(fa) == 1 or len(fb) == 1:
        return Polynomial((Fraction(1),))
    if _coprime_mod_prime(fa, fb):
        return Polynomial((Fraction(1),))
    while True:
        if len(fb) > len(fa):
            fa, fb = fb, fa
        rem = _pseudo_mod(fa, fb)
        if not rem:
            break
        fa, fb = fb, rem
    lead = fb[-1]
    return Polynomial(tuple(Fraction(c, lead) for c in fb))


def characteristic_polynomial(rec: LinearRecurrence) -> Polynomial:
    """x**k - sum_{j<k} a_j x**j; monic of degree k (constant 1 for k = 0)."""
    coeffs = [-c for c in rec.coefficients] + [Fraction(1)]
    return Polynomial(tuple(coeffs))


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _newton_polish(poly: Polynomial, deriv: Polynomial, z: complex, mult: int, tol: float):
    for _ in range(80):
        dz = deriv(z)
        if dz == 0:
            return z
        step = mult * poly(z) / dz
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    return z


def polynomial_roots(p: Polynomial, tolerance: float = 1e-12, merge_tol: float = 1e-6):
    """All roots with multiplicities: exact rationals first, then numeric.

    Rational roots are found by the rational-root test and removed by exact
    deflation; the rest come from the companion matrix, get clustered when
    closer than merge_tol (relative to the root scale; companion-matrix
    error for a double root is already around sqrt(machine epsilon), so the
    threshold must sit well above that), and each cluster is polished as
    one multiple root by multiplicity-aware Newton steps.  Raises
    RootFindingError when a numeric root's residual stays above
    tolerance * coefficient scale.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    roots = []
    work = p
    if work.is_exact():
        work = Polynomial(tuple(Fraction(c) for c in work.coeffs))
        # factor out x**v exactly
        v = 0
        while work.coefficient(0) == 0 and work.degree > 0:
            work = Polynomial(work.coeffs[1:])
            v += 1
        if v:
            roots.append((Fraction(0), v))
        if work.degree >= 1:
            ints, _ = linalg.clear_denominators(work.coeffs)
            candidates = []
            if abs(ints[0]) <= 10**12 and abs(ints[-1]) <= 10**12:
                for num in _divisors(ints[0]):
                    for den in _divisors(ints[-1]):
                        candidates.extend((Fraction(num, den), Fraction(-num, den)))
            for cand in sorted(set(candidates)):
                mult = 0
                while work.degree >= 1 and work(cand) == 0:
                    work, rem = divmod(work, Polynomial((-cand, 1)))
                    if not rem.is_zero:
                        raise ArithmeticError(f"exact root {cand} left a remainder")
                    mult += 1
                if mult:
                    roots.append((cand, mult))
        roots.sort(key=lambda rm: rm[0])
    if work.degree >= 1:
        import numpy as np  # imported on first use: only this numeric tier needs numpy

        coeffs = [complex(c) for c in work.coeffs]
        raw = np.roots(coeffs[::-1])
        # cluster roots closer than merge_tol (union-find on pairs)
        parent = list(range(len(raw)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                scale = max(1.0, abs(raw[i]), abs(raw[j]))
                if abs(raw[i] - raw[j]) < merge_tol * scale:
                    parent[find(i)] = find(j)
        clusters = {}
        for i in range(len(raw)):
            clusters.setdefault(find(i), []).append(complex(raw[i]))
        deriv = work.derivative()
        cscale = max(abs(c) for c in coeffs)
        numeric = []
        for members in clusters.values():
            mult = len(members)
            z = sum(members) / mult
            z = _newton_polish(work, deriv, z, mult, tolerance)
            if abs(z.imag) <= 1e-10 * max(1.0, abs(z.real)):
                z = complex(z.real, 0.0)
            residual = abs(work(z))
            bound = tolerance * cscale * max(1.0, abs(z)) ** work.degree
            if residual > bound:
                raise RootFindingError(
                    f"root {z}: residual {residual:.3e} above tolerance scale {bound:.3e}"
                )
            numeric.append((z, mult))
        numeric.sort(key=lambda rm: (rm[0].real, rm[0].imag))
        roots.extend(numeric)
    return roots


@dataclass(frozen=True)
class PowerSum:
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
        seen = []
        for poly, root in terms:
            if poly.is_zero:
                raise ValueError("power-sum polynomials must be nonzero")
            if root == 0:
                raise ValueError("power-sum roots must be nonzero")
            if any(complex(root) == s for s in seen):
                raise ValueError(f"duplicate power-sum root {root}")
            seen.append(complex(root))
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
    if exact:
        rows = [
            [Fraction(n) ** t * Fraction(nonzero[j][0]) ** n for j, t in columns]
            for n in samples
        ]
        rhs = [Fraction(initial[n - 1]) for n in samples]
        solution = linalg.solve(rows, rhs)
        if solution is None:
            raise SingularSystemError("confluent Vandermonde system is inconsistent")
    else:
        import numpy as np

        mat = np.array(
            [[complex(n) ** t * complex(nonzero[j][0]) ** n for j, t in columns] for n in samples],
            dtype=complex,
        )
        rhs_np = np.array([complex(initial[n - 1]) for n in samples], dtype=complex)
        try:
            solution = tuple(np.linalg.solve(mat, rhs_np))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"numeric Vandermonde solve failed: {exc}") from exc
    pairs = []
    for j, (root, mult) in enumerate(nonzero):
        coeffs = [solution[column_of[j, t]] for t in range(mult)]
        poly = Polynomial(tuple(coeffs))
        if poly.is_zero:
            continue  # this root contributes nothing for these initial terms
        pairs.append((poly, root))
    ps = PowerSum(tuple(pairs), valid_from=start)
    for n in range(start, rec.order + 1):
        value = evaluate_powersum(ps, n)
        target = initial[n - 1]
        if exact:
            if value != target:
                raise SingularSystemError(f"exact reconstruction failed at n={n}")
        elif abs(complex(value) - complex(target)) > 1e-6 * max(1.0, abs(complex(target))):
            raise SingularSystemError(f"numeric reconstruction failed at n={n}")
    return ps


@dataclass(frozen=True)
class DominantPart:
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


def dominant_part(ps: PowerSum, tie_tol: float = 1e-9) -> DominantPart:
    """Extract (s, alpha, unit terms) from a nonempty power sum."""
    if not ps.terms:
        raise ValueError("the empty power sum has no dominant part")
    moduli = [abs(complex(root)) for _, root in ps.terms]
    alpha = max(moduli)
    at_max = [
        (poly, root)
        for (poly, root), m in zip(ps.terms, moduli)
        if abs(m - alpha) <= tie_tol * alpha
    ]
    s = max(poly.degree for poly, _ in at_max)
    unit_terms = tuple(
        (complex(poly.coefficient(s)), complex(root) / alpha)
        for poly, root in at_max
        if poly.degree == s
    )
    return DominantPart(s, alpha, unit_terms)


def vandermonde_modulus(betas, tol: float = 1e-9) -> float:
    """prod_{u<v} |beta_v - beta_u|; the empty product (one beta) is 1."""
    betas = [complex(b) for b in betas]
    product = 1.0
    for u in range(len(betas)):
        for v in range(u + 1, len(betas)):
            gap = abs(betas[v] - betas[u])
            if gap <= tol:
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


def linear_factor_product(factors) -> Polynomial:
    """Product of the linear polynomials c + d*x over the pairs (c, d) in
    factors, multiplied in the given order; the empty product is 1."""
    poly = Polynomial((1,))
    for c, d in factors:
        poly = poly * Polynomial((c, d))
    return poly


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
