"""Power sums, roots, dominant parts, and the window lower bound."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from cfinite import linalg, powersum
from cfinite.errors import ResourceLimitError, RootFindingError, SingularSystemError
from cfinite.powersum import (
    _complex_solve,
    binet_form,
    catalan_asymptotic_constant,
    characteristic_polynomial,
    dominant_part,
    DominantPart,
    evaluate_powersum,
    falling_factorial,
    poly_gcd,
    Polynomial,
    polynomial_roots,
    PowerSum,
    tail_lower_bound_check,
    vandermonde_modulus,
)
from cfinite.recurrence import iterate_recurrence, LinearRecurrence

GOLDEN = (1 + math.sqrt(5)) / 2


class TestPolynomial:
    def test_degree_sentinel(self):
        assert Polynomial().degree == -1
        assert Polynomial((0, 0)).is_zero
        assert Polynomial((3,)).degree == 0

    def test_arithmetic(self):
        x = Polynomial.x()
        p = (x + 1) * (x - 1)
        assert p == Polynomial((-1, 0, 1))
        assert p(3) == 8
        assert (p - p).is_zero
        assert (x * 2 + 1) ** 2 == Polynomial((1, 4, 4))

    def test_divmod(self):
        p = Polynomial((Fraction(-1), Fraction(0), Fraction(1)))  # x^2 - 1
        q, r = divmod(p, Polynomial((Fraction(-1), Fraction(1))))  # x - 1
        assert q == Polynomial((1, 1)) and r.is_zero

    def test_gcd(self):
        x = Polynomial.x()
        a = (x - 1) * (x - 2)
        b = (x - 1) * (x + 3)
        g = poly_gcd(
            Polynomial(tuple(Fraction(c) for c in a.coeffs)),
            Polynomial(tuple(Fraction(c) for c in b.coeffs)),
        )
        assert g == Polynomial((-1, 1))

    def test_products_of_unequal_lengths_match_double_loop(self):
        def naive(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Polynomial(out)

        rng = random.Random(29)
        for _ in range(60):
            a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 9))]
            b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            a[-1] = a[-1] or Fraction(1)
            b[-1] = b[-1] or 1
            if len(a) > 2:
                a[1] = 0  # interior zeros of either operand
            if len(b) > 2:
                b[1] = 0
            p, q = Polynomial(a), Polynomial(b)
            assert p * q == q * p == naive(a, b)
        assert Polynomial() * Polynomial((1, 2)) == Polynomial((1, 2)) * Polynomial() == Polynomial()

    def test_str(self):
        assert str(Polynomial((1, -1, -1))) == "1 - x - x^2"
        assert str(Polynomial((0, 0, 6))) == "6*x^2"
        assert str(Polynomial()) == "0"


class TestCharacteristicPolynomial:
    def test_fibonacci(self):
        assert characteristic_polynomial(LinearRecurrence((1, 1))) == Polynomial((-1, -1, 1))

    def test_empty(self):
        assert characteristic_polynomial(LinearRecurrence(())) == Polynomial((1,))

    def test_geometric(self):
        assert characteristic_polynomial(LinearRecurrence((2,))) == Polynomial((-2, 1))


class TestPolynomialRoots:
    def test_fibonacci_quadratic_formula_oracle(self):
        roots = polynomial_roots(Polynomial((-1, -1, 1)))
        values = sorted(complex(r).real for r, _ in roots)
        assert abs(values[0] - (1 - math.sqrt(5)) / 2) < 1e-9
        assert abs(values[1] - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_exact_root(self):
        assert polynomial_roots(Polynomial((-2, 1))) == [(Fraction(2), 1)]

    def test_double_root(self):
        # (x-1)^2 expands to 1 - 2x + x^2
        assert polynomial_roots(Polynomial((1, -2, 1))) == [(Fraction(1), 2)]

    def test_zero_root_multiplicity(self):
        roots = polynomial_roots(Polynomial((0, 0, 1)))
        assert roots == [(Fraction(0), 2)]

    def test_complex_pair(self):
        roots = polynomial_roots(Polynomial((1, 0, 1)))
        assert sorted(complex(r).imag for r, _ in roots) == pytest.approx([-1.0, 1.0])

    def test_irrational_double_root_cluster(self):
        # (x^2 - 2)^2: the squarefree factor x^2 - 2 comes with multiplicity 2
        p = Polynomial((4, 0, -4, 0, 1))
        roots = polynomial_roots(p)
        assert sorted(m for _, m in roots) == [2, 2]
        for r, _ in roots:
            assert abs(abs(complex(r).real) - math.sqrt(2)) < 1e-9

    def test_rational_roots_of_scaled_poly(self):
        # 6x^2 - 5x + 1 = (2x - 1)(3x - 1)
        roots = polynomial_roots(Polynomial((1, -5, 6)))
        assert roots == [(Fraction(1, 3), 1), (Fraction(1, 2), 1)]

    @pytest.mark.parametrize("root", [Fraction(10**13), Fraction(3 * 10**13, 7)])
    def test_rational_root_past_the_divisor_search(self, root):
        # large coefficients: the rational root is lifted from its root mod p
        # and reconstructed, with no divisor search
        f = Polynomial((-root.numerator, root.denominator))
        assert polynomial_roots(f) == [(root, 1)]
        # with a double root and a complex pair beside it
        roots = polynomial_roots(f * f * Polynomial((1, 0, 1)) * Polynomial((-3, 1)))
        assert roots[:2] == [(Fraction(3), 1), (root, 2)]
        assert [complex(r) for r, _ in roots[2:]] == pytest.approx([-1j, 1j])
        assert [m for _, m in roots[2:]] == [1, 1]

    def test_close_rational_roots_past_the_divisor_search(self):
        # 10000001/10^7 and 10000003/10^7: the product's leading coefficient
        # is 10^14, and a fraction with denominator <= 10^14 lies nearer each
        # float root than the root itself, so no float can tell them apart
        f = Polynomial((-(10**7 + 1), 10**7)) * Polynomial((-(10**7 + 3), 10**7))
        roots = polynomial_roots(f)
        assert roots == [(Fraction(10**7 + 1, 10**7), 1), (Fraction(10**7 + 3, 10**7), 1)]
        assert all(isinstance(r, Fraction) for r, _ in roots)

    def test_large_rational_root_gives_exact_binet(self):
        ps = binet_form(LinearRecurrence((10**13,)), (10**13,))
        [(poly, root)] = ps.terms
        # a complex 1e13 would compare equal, so the types are checked too
        assert (poly, root) == (Polynomial((1,)), Fraction(10**13))
        assert isinstance(root, Fraction) and poly.is_exact()

    def test_a_convergent_that_is_another_root_is_passed_over(self):
        # (3x - 1)(2x - 1)(x - 10^13): 1/2 is a convergent of the numeric root
        # 1/3 and a root of f, but lies 1/6 from it, past 1 / (2 * 6); taking
        # it there lost 1/3 and kept a float 0.5 beside the exact 1/2
        p = Polynomial((-1, 3)) * Polynomial((-1, 2)) * Polynomial((-(10**13), 1))
        roots = polynomial_roots(p)
        assert roots == [(Fraction(1, 3), 1), (Fraction(1, 2), 1), (Fraction(10**13), 1)]
        assert all(isinstance(r, Fraction) for r, _ in roots)
        monic = p * Fraction(1, p.leading)
        rec = LinearRecurrence(tuple(-c for c in monic.coeffs[:-1]))
        ps = binet_form(rec, (1, 2, 3))
        assert ps.is_exact
        assert [evaluate_powersum(ps, n) for n in (1, 2, 3)] == [1, 2, 3]

    @pytest.mark.parametrize(
        "lead, other",
        [
            (7**30, Polynomial((-2, 0, 1))),  # 2 * 25 digits: past a fixed 50-digit polish
            (10**200 + 7, Polynomial((-3, 0, 1)) * Polynomial((1, 1, 1))),
        ],
        ids=["7^30", "10^200+7"],
    )
    def test_rational_root_with_a_huge_denominator(self, lead, other):
        root = Fraction(lead + 1, lead)
        roots = polynomial_roots(Polynomial((-(lead + 1), lead)) * other)
        assert roots[0] == (root, 1) and isinstance(roots[0][0], Fraction)
        assert len(roots) == 1 + other.degree
        assert not any(isinstance(r, Fraction) for r, _ in roots[1:])

    def test_no_rational_point_is_evaluated_without_a_real_root(self, monkeypatch):
        # 735134400 (1 + x^2) + x has only complex roots; candidates come only
        # from f's roots mod p, and it has none there, so nothing is
        # reconstructed or tested; a search over the quotients of the 1,344
        # divisors of 735134400 evaluated f at 73,710 points, for 6 s
        calls = []
        call, reconstruct = Polynomial.__call__, linalg.rational_reconstruction

        def counting(self, x):
            if isinstance(x, Fraction):
                calls.append(x)
            return call(self, x)

        monkeypatch.setattr(Polynomial, "__call__", counting)
        monkeypatch.setattr(linalg, "rational_reconstruction", lambda *a: calls.append(a) or reconstruct(*a))
        roots = polynomial_roots(Polynomial((735134400, 1, 735134400)))
        assert calls == []
        assert [m for _, m in roots] == [1, 1] and all(complex(r).imag for r, _ in roots)

    def test_constructed_rational_roots_come_back_exact(self):
        # products of known rational linear factors, some squared or cubed,
        # times random integer factors: the constructed roots are the oracle,
        # with a multiplicity raised by any integer factor that shares them
        rng = random.Random(28)
        x = Polynomial.x()
        for _ in range(300):
            built = {}
            for _ in range(rng.randint(1, 4)):
                r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**4))
                built[r] = built.get(r, 0) + rng.choice((1, 1, 2, 3))
            rest = Polynomial((1,))
            for _ in range(rng.randint(0, 2)):
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                rest = rest * Polynomial(coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])
            p = rest
            for r, m in built.items():
                p = p * Polynomial((-r.numerator, r.denominator)) ** m
            roots = polynomial_roots(p)
            exact = {r: m for r, m in roots if isinstance(r, Fraction)}
            for r, m in built.items():
                while rest(r) == 0:
                    rest, m = rest // (x - r), m + 1
                assert exact.get(r) == m
            assert all(p(r) == 0 for r in exact)
            # documented order: exact roots sorted, then floats by (real, imag)
            assert list(exact) == sorted(exact) and [r for r, _ in roots[: len(exact)]] == list(exact)
            numeric = [r for r, _ in roots[len(exact) :]]
            assert numeric == sorted(numeric, key=lambda z: (z.real, z.imag))
            assert sum(m for _, m in roots) == p.degree

    @staticmethod
    def rational_roots_by_divisors(p):
        """The rational roots of a small integer polynomial, from the
        rational root theorem: r / q with r | p(0) and q | lc(p)."""
        ints = [int(c) for c in p.coeffs]
        v = next(i for i, c in enumerate(ints) if c)
        ints = ints[v:]
        divisors = lambda n: [d for d in range(1, abs(n) + 1) if n % d == 0]
        found = {Fraction(s * r, q) for r in divisors(ints[0]) for q in divisors(ints[-1]) for s in (-1, 1)}
        return {r for r in found if p(r) == 0} | ({Fraction(0)} if v else set())

    def test_planted_rational_roots_are_never_missed(self):
        # 1-4 planted roots with denominators up to 7^30 and 10^13, times 0-2
        # random integer factors: the exact roots are the planted ones and
        # the integer factors' own, from the rational root theorem
        rng = random.Random(31)
        for _ in range(300):
            planted = set()
            for _ in range(rng.randint(1, 4)):
                den = rng.choice((rng.randint(1, 10**13), 7 ** rng.randint(1, 30)))
                planted.add(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**13), den))
            rest = Polynomial((1,))
            for _ in range(rng.randint(0, 2)):
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                rest = rest * Polynomial(coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])
            p = rest
            for r in planted:
                p = p * Polynomial((-r.numerator, r.denominator))
            roots = polynomial_roots(p)
            exact = {r for r, _ in roots if isinstance(r, Fraction)}
            assert exact == planted | self.rational_roots_by_divisors(rest)
            assert sum(m for _, m in roots) == p.degree

    @pytest.mark.parametrize("scale", [10**30, 10**31])
    def test_clusters_of_rational_roots_come_back_exact(self, scale):
        # (3x - 1)(scale (3x - 1)^2 - 1): the roots 1/3 and 1/3 +- scale^-1/2 / 3
        # lie within 2e-16 of each other; the float polish returned three
        # floats at 10^30 and missed 1/3 at 10^31
        a = Polynomial((-1, 3))
        roots = polynomial_roots(a * (a * a * scale - Polynomial((1,))))
        exact = [r for r, _ in roots if isinstance(r, Fraction)]
        if scale == 10**30:
            assert exact == [Fraction(10**15 - 1, 3 * 10**15), Fraction(1, 3), Fraction(10**15 + 1, 3 * 10**15)]
        else:
            assert exact == [Fraction(1, 3)] and len(roots) == 3

    def test_rational_roots_need_no_float(self, monkeypatch):
        # with the Aberth iteration made to raise, a polynomial whose roots
        # are all rational still gets every one, with its multiplicity
        def refuse(f):
            raise AssertionError("the Aberth iteration ran")

        monkeypatch.setattr(powersum, "_aberth_roots", refuse)
        built = {Fraction(0): 2, Fraction(1, 3): 1, Fraction(-5, 7): 2, Fraction(7**30 + 1, 7**30): 1,
                 Fraction(10**13): 3, Fraction(-2): 1}
        p = Polynomial((1,))
        for r, m in built.items():
            p = p * Polynomial((-r.numerator, r.denominator)) ** m
        assert polynomial_roots(p) == sorted(built.items())

    def test_aberth_runs_once_per_factor_on_the_quotient(self, monkeypatch):
        calls = []
        aberth = powersum._aberth_roots
        monkeypatch.setattr(powersum, "_aberth_roots", lambda f: calls.append(f.degree) or aberth(f))
        # x^2 - 2 squared, x^2 - 3 and 3x - 1: one call per squarefree factor,
        # on what is left after 1/3 is divided out
        p = Polynomial((-2, 0, 1)) ** 2 * Polynomial((-3, 0, 1)) * Polynomial((-1, 3))
        roots = polynomial_roots(p)
        assert sorted(calls) == [2, 2] and roots[0] == (Fraction(1, 3), 1)
        # a {-1, 0, 1} factor with the root 0 times (3x - 2)(7x + 5): the
        # degree-299 squarefree factor has the rational roots 2/3 and -5/7,
        # and the iteration runs on the degree-297 quotient alone
        calls.clear()
        rng = random.Random(1)
        g = Polynomial([0] + [rng.choice((-1, 0, 1)) for _ in range(297)] + [1])
        roots = polynomial_roots(g * Polynomial((-2, 3)) * Polynomial((5, 7)))
        assert calls == [297]
        assert roots[:3] == [(Fraction(-5, 7), 1), (Fraction(0), 1), (Fraction(2, 3), 1)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots(Polynomial())

    def test_inexact_coefficients_refused(self):
        for coeffs in ((1.0, -2.0, 1.0), (1, 0, 1j)):
            with pytest.raises(ValueError, match="exact coefficients"):
                polynomial_roots(Polynomial(coeffs))

    def test_near_double_root_is_two_simple_roots(self):
        # (x - 1)^2 - 10^-14 has the simple roots 1 +- 10^-7, which sit well
        # inside the spread of a companion-matrix double root
        roots = polynomial_roots(Polynomial((1 - Fraction(1, 10**14), -2, 1)))
        assert [m for _, m in roots] == [1, 1]
        assert [complex(r).real for r, _ in roots] == pytest.approx(
            [1 - 1e-7, 1 + 1e-7], abs=1e-9
        )

    def test_squared_factor_sweep(self):
        # p = a^2 b for random monic integer a, b with a b squarefree: every
        # root of a has multiplicity 2 in p, every root of b multiplicity 1
        rng = random.Random(3)
        cases = 0
        while cases < 40:
            a = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))] + [1])
            b = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
            ab = a * b
            if poly_gcd(ab, ab.derivative()).degree > 0 or ab.coefficient(0) == 0:
                continue
            cases += 1
            roots = polynomial_roots(a * a * b)
            assert sorted(m for _, m in roots) == [1] * b.degree + [2] * a.degree
            for r, m in roots:
                factor = a if m == 2 else b
                z = complex(r)
                assert abs(factor(z)) <= 1e-6 * max(1.0, abs(z)) ** factor.degree


    def test_squarefree_factor_sweep(self):
        # random squarefree factors of degree 2..64; polynomial_roots itself
        # raises when the iteration does not settle
        rng = random.Random(22)
        factors = 0
        while factors < 300:
            d = rng.randint(2, 64)
            top = rng.choice((9, 1000))  # 1000: roots of widely spread moduli
            middle = [rng.randint(-top, top) for _ in range(d - 1)]
            p = Polynomial([rng.randint(-9, 9)] + middle + [1])
            if p.coefficient(0) == 0:
                continue
            found = polynomial_roots(p)
            if any(m > 1 for _, m in found):
                continue  # not squarefree
            factors += 1
            roots = [complex(r) for r, _ in found]
            assert len(roots) == d
            floats = Polynomial([complex(c) for c in p.coeffs])
            scale = max(abs(c) for c in floats.coeffs)
            for z in roots:
                assert abs(floats(z)) <= 1e-12 * scale * max(1.0, abs(z)) ** d
            total, product = sum(roots), math.prod(roots)
            expected_total = -complex(Fraction(p.coefficient(d - 1), p.leading))
            expected_product = complex(Fraction((-1) ** d * p.coefficient(0), p.leading))
            assert abs(total - expected_total) <= 1e-9 * max(1.0, sum(abs(z) for z in roots))
            assert abs(product - expected_product) <= 1e-9 * abs(expected_product)

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2), Fraction(-7, 5)])
    @pytest.mark.parametrize("eps", [Fraction(1, 10**7), Fraction(1, 10**8), Fraction(1, 10**10)])
    def test_near_equal_roots_are_resolved(self, c, eps):
        # (x - c)^2 - 2 eps^2: on float values of f the pair blurs into noise
        # of about 1e-16 / eps, and the roots came out up to 1e-8 off
        p = Polynomial((c * c - 2 * eps * eps, -2 * c, 1))
        roots = [complex(r) for r, _ in polynomial_roots(p)]
        expected = [float(c) - float(eps) * math.sqrt(2), float(c) + float(eps) * math.sqrt(2)]
        assert roots == pytest.approx(expected, rel=1e-15, abs=0)

    def test_clustered_quadratic_products_match_the_quadratic_formula(self):
        # x^2 + b x + a for small a, b give many roots closer than float
        # values of the degree-40 product can tell apart: float roots of this
        # one were up to 3e-6 off
        rng = random.Random(24)
        quadratics = set()
        while len(quadratics) < 20:
            quadratics.add((rng.randint(-30, 30), rng.randint(-12, 12)))
        p, expected = Polynomial((1,)), []
        for a, b in quadratics:
            p = p * Polynomial((a, b, 1))
            disc = cmath.sqrt(b * b - 4 * a)
            r = (-b - disc) / 2 if b >= 0 else (-b + disc) / 2  # no cancellation
            expected += [r, a / r] if a else [r, 0j]
        assert poly_gcd(p, p.derivative()).degree == 0
        for r, _ in polynomial_roots(p):
            z = complex(r)
            assert min(abs(z - e) for e in expected) <= 1e-14 * abs(z)

    def test_roots_at_the_edges_of_the_float_range(self):
        # the constant term 10^-400 underflowed to 0 and left the Newton polygon
        roots = polynomial_roots(Polynomial((Fraction(-1, 10**400), 0, 1)))
        assert [complex(r) for r, _ in roots] == [-1e-200, 1e-200]
        # the rational roots +-10^-400 are found exactly, with no float
        roots = polynomial_roots(Polynomial((Fraction(-1, 10**800), 0, 1)))
        assert roots == [(Fraction(-1, 10**400), 1), (Fraction(1, 10**400), 1)]
        # irrational roots +-sqrt(2) 10^-400 underflow to 0: the two iterates meet
        with pytest.raises(RootFindingError, match="1 distinct roots for a factor of degree 2"):
            polynomial_roots(Polynomial((Fraction(-2, 10**800), 0, 1)))
        # float values of f overflow near the root 10^200
        roots = polynomial_roots(Polynomial((-1, -(10**200), 1)))
        assert [complex(r) for r, _ in roots] == [-1e-200, 1e200]

    def test_unsettled_iteration_raises(self, monkeypatch):
        # with no tolerance, last-bit steps never stop
        monkeypatch.setattr(powersum, "ROOT_TOLERANCE", 0.0)
        with pytest.raises(RootFindingError, match="did not settle in 100 wide sweeps"):
            polynomial_roots(Polynomial((-2, 0, 1)))

    def test_tiny_roots_keep_their_relative_accuracy(self):
        # a step bound absolute below 1 would stop at the starting circle
        # here, and an imaginary part snapped to 0 below 1e-10 absolute made
        # the roots of x^2 + 2e-30 two zeros
        for p, modulus in (
            (Polynomial((Fraction(-2, 10**30), 0, 1)), math.sqrt(2) * 1e-15),
            (Polynomial((Fraction(2, 10**30), 0, 1)), math.sqrt(2) * 1e-15),
            (Polynomial((Fraction(-5, 10**24), 0, 0, 1)), 5 ** (1 / 3) * 1e-8),
        ):
            for r, m in polynomial_roots(p):
                assert m == 1 and abs(abs(complex(r)) - modulus) <= 1e-12 * modulus


class TestBinetForm:
    def test_fibonacci_known_binet(self):
        ps = binet_form(LinearRecurrence((1, 1)), (1, 1))
        assert len(ps.terms) == 2
        # known closed form: F_n = (phi^n - psi^n)/sqrt(5)
        coeff = 1 / math.sqrt(5)
        got = sorted(complex(poly.coefficient(0)).real for poly, _ in ps.terms)
        assert got == pytest.approx([-coeff, coeff], abs=1e-9)
        for n in range(1, 31):
            value = complex(evaluate_powersum(ps, n))
            assert abs(value - iterate_recurrence(LinearRecurrence((1, 1)), (1, 1), n)[-1]) < 1e-6

    def test_root_powers_past_the_float_range_are_a_resource_limit(self):
        # a Vandermonde row reaches (10^200)^2
        message = r"^root 1e\+200\+0j to the power 2 is past the float range$"
        with pytest.raises(ResourceLimitError, match=message):
            binet_form(LinearRecurrence((1, 10**200)), (1, 1))

    def test_coefficients_past_the_float_range_are_a_resource_limit(self):
        # the Aberth iteration has no float copy of x^2 - 2 10^400
        message = r"^polynomial coefficient -2\.000000e\+400 is past the float range$"
        with pytest.raises(ResourceLimitError, match=message):
            binet_form(LinearRecurrence((2 * 10**400, 0)), (1, 1))
        # named without str(), which refuses ints past 4,300 digits
        with pytest.raises(ResourceLimitError, match=r"^polynomial coefficient -2\.000000e\+5000 "):
            binet_form(LinearRecurrence((2 * 10**5000, 0)), (1, 1))
        # the rational root of x - 10^400 needs no float: the power sum is exact
        ps = binet_form(LinearRecurrence((10**400,)), (1,))
        assert ps.terms == ((Polynomial((Fraction(1, 10**400),)), Fraction(10**400)),)

    def test_empty(self):
        ps = binet_form(LinearRecurrence(()), ())
        assert ps.terms == ()
        assert evaluate_powersum(ps, 5) == 0

    def test_geometric(self):
        ps = binet_form(LinearRecurrence((2,)), (2,))
        assert len(ps.terms) == 1
        poly, root = ps.terms[0]
        assert root == 2 and poly == Polynomial((1,))
        assert evaluate_powersum(ps, 7) == 128

    def test_zero_root_shifts_validity(self):
        # b_{n+2} = 2 b_{n+1}: characteristic x(x - 2)
        ps = binet_form(LinearRecurrence((0, 2)), (1, 1))
        assert ps.valid_from == 2
        assert evaluate_powersum(ps, 2) == 1
        assert evaluate_powersum(ps, 5) == 8

    def test_exact_reconstruction_random_rational_roots(self):
        rng = random.Random(23)
        pool = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(3, 2),
        ]
        for _ in range(20):
            k = rng.randint(1, 4)
            roots = rng.sample(pool, k)  # distinct, nonzero
            char = Polynomial((Fraction(1),))
            for r in roots:
                char = char * Polynomial((-r, Fraction(1)))
            # char = x^k - sum a_j x^j, so a_j = -coefficient(j)
            rec = LinearRecurrence(tuple(-char.coefficient(j) for j in range(k)))
            initial = tuple(rng.randint(-5, 5) for _ in range(k))
            ps = binet_form(rec, initial)
            assert ps.is_exact
            expected = iterate_recurrence(rec, initial, 30)
            for n in range(1, 31):
                assert evaluate_powersum(ps, n) == expected[n - 1]

    @pytest.mark.parametrize(
        "coefficients",
        [
            (-1, -2, 1, 2),  # (x^2 - x - 1)^2; the initial terms below make b_n = n F_n
            (-4, 0, 4, 0),  # (x^2 - 2)^2
            (-9, -6, 5, 2),  # (x^2 - x - 3)^2
        ],
    )
    def test_repeated_irrational_roots_reconstruct(self, coefficients):
        rec = LinearRecurrence(coefficients)
        initial = (1, 2, 6, 12)
        ps = binet_form(rec, initial)
        assert sorted(poly.degree for poly, _ in ps.terms) == [1, 1]
        expected = iterate_recurrence(rec, initial, 30)
        # exact multiplicities leave only rounding, about 1e-15 relative here
        for n in range(1, 31):
            error = abs(complex(evaluate_powersum(ps, n)) - complex(expected[n - 1]))
            assert error <= 1e-12 * max(1.0, abs(expected[n - 1]))

    def test_repeated_rational_root(self):
        # characteristic (x - 2)^2 = x^2 - 4x + 4: rec a = (-4, 4)
        rec = LinearRecurrence((-4, 4))
        ps = binet_form(rec, (1, 1))
        assert len(ps.terms) == 1
        poly, root = ps.terms[0]
        assert root == 2 and poly.degree == 1
        expected = iterate_recurrence(rec, (1, 1), 12)
        for n in range(1, 13):
            assert evaluate_powersum(ps, n) == expected[n - 1]

    def test_random_recurrences_reconstruct(self):
        rng = random.Random(40)
        for _ in range(40):
            k = rng.randint(1, 40)
            coefficients = [rng.randint(-9, 9) for _ in range(k)]
            coefficients[0] = coefficients[0] or 1
            rec = LinearRecurrence(tuple(coefficients))
            initial = tuple(rng.randint(-9, 9) for _ in range(k))
            ps = binet_form(rec, initial)
            expected = iterate_recurrence(rec, initial, 2 * k)
            for n in range(1, 2 * k + 1):
                error = abs(complex(evaluate_powersum(ps, n)) - expected[n - 1])
                assert error <= 1e-6 * max(1, abs(expected[n - 1]))

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2), Fraction(-7, 5)])
    @pytest.mark.parametrize("eps", [Fraction(1, 10**6), Fraction(1, 10**7), Fraction(1, 10**8)])
    def test_near_equal_roots_reconstruct(self, c, eps):
        # roots c +- eps sqrt(2); float roots of the pair made errors up to 5e-7
        rec = LinearRecurrence((2 * eps * eps - c * c, 2 * c))
        ps = binet_form(rec, (1, 2))
        expected = iterate_recurrence(rec, (1, 2), 300)
        for n in range(1, 301):
            error = abs(complex(evaluate_powersum(ps, n)) - complex(expected[n - 1]))
            assert error <= 2e-8 * max(1, abs(expected[n - 1]))

    def test_overflowing_vandermonde_entries_raise(self):
        # the irrational double roots +-sqrt(12) 10^76: 4 * root^4 overflows to
        # inf, and the solve gave a power sum of NaN coefficients that passed
        # the check
        f = Polynomial((-12 * 10**153, 0, 1))
        rec = LinearRecurrence(tuple(-c for c in (f * f).coeffs[:-1]))
        with pytest.raises(SingularSystemError, match="reconstruction failed at n=1"):
            binet_form(rec, (1, 1, 1, 1))
        # the double root 1.3e154 is rational: found exactly, it never meets a float
        r = 13 * 10**153
        ps = binet_form(LinearRecurrence((-r * r, 2 * r)), (1, 1))
        assert ps.is_exact and [root for _, root in ps.terms] == [r]

    def test_singular_numeric_system_raises(self):
        assert _complex_solve([[2, 1], [1, 3]], [3, 4]) == pytest.approx([1, 1])
        with pytest.raises(SingularSystemError, match="singular at column 1"):
            _complex_solve([[1, 2], [2, 4]], [1, 2])

    def test_initial_count_checked(self):
        with pytest.raises(ValueError):
            binet_form(LinearRecurrence((1, 1)), (1,))


class TestEvaluatePowersum:
    def test_domain(self):
        with pytest.raises(ValueError):
            evaluate_powersum(PowerSum(()), 0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PowerSum(((Polynomial(), Fraction(2)),))
        with pytest.raises(ValueError):
            PowerSum(((Polynomial((1,)), Fraction(0)),))
        with pytest.raises(ValueError):
            PowerSum(
                (
                    (Polynomial((1,)), Fraction(3)),
                    (Polynomial((0, 1)), Fraction(3)),
                )
            )

    def test_exact_roots_that_floats_merge_stay_distinct(self):
        # 1 and 1 + 10^-20 are one float: b_n = 1 + (1 + 10^-20)^n has an
        # exact power sum with both roots
        near = Fraction(10**20 + 1, 10**20)
        rec = LinearRecurrence((-near, 1 + near))
        ps = binet_form(rec, (1 + near, 1 + near * near))
        assert ps.terms == ((Polynomial((1,)), Fraction(1)), (Polynomial((1,)), near))


class TestDominantPart:
    def test_fibonacci(self):
        dp = dominant_part(binet_form(LinearRecurrence((1, 1)), (1, 1)))
        assert dp.degree == 0
        assert abs(dp.alpha - GOLDEN) < 1e-9
        assert dp.l == 1
        gamma, beta = dp.unit_terms[0]
        assert beta == pytest.approx(1.0)
        assert abs(gamma) == pytest.approx(1 / math.sqrt(5), abs=1e-9)

    def test_symmetric_pair_keeps_both(self):
        ps = PowerSum(
            ((Polynomial((1,)), Fraction(2)), (Polynomial((1,)), Fraction(-2)))
        )
        dp = dominant_part(ps)
        assert dp.degree == 0 and dp.alpha == 2.0 and dp.l == 2
        assert sorted(b.real for _, b in dp.unit_terms) == [-1.0, 1.0]

    def test_degree_selects_at_equal_modulus(self):
        ps = PowerSum(
            ((Polynomial((0, 1)), Fraction(3)), (Polynomial((1,)), Fraction(-3)))
        )
        dp = dominant_part(ps)
        assert dp.degree == 1 and dp.alpha == 3.0 and dp.l == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dominant_part(PowerSum(()))


class TestVandermondeModulus:
    def test_single(self):
        assert vandermonde_modulus([1.0]) == 1.0

    def test_pair(self):
        assert vandermonde_modulus([1.0, -1.0]) == 2.0

    def test_fourth_roots(self):
        betas = [1, 1j, -1, -1j]
        # oracle: the direct product over the six pairs
        direct = 1.0
        for u in range(4):
            for v in range(u + 1, 4):
                direct *= abs(complex(betas[v]) - complex(betas[u]))
        value = vandermonde_modulus(betas)
        assert value == pytest.approx(direct) == pytest.approx(16.0)

    def test_rotation_invariance(self):
        rng = random.Random(3)
        betas = [cmath.exp(1j * rng.uniform(0, 6.28)) for _ in range(4)]
        base = vandermonde_modulus(betas)
        for theta in (0.1, 1.0, 2.5):
            spun = [b * cmath.exp(1j * theta) for b in betas]
            assert vandermonde_modulus(spun) == pytest.approx(base, rel=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_modulus([1.0, 1.0 + 1e-12])


class TestTailLowerBound:
    def test_constant(self):
        dp = DominantPart(0, 1.0, ((1 + 0j, 1 + 0j),))
        observed, bound = tail_lower_bound_check(dp, 17)
        assert observed == pytest.approx(1.0)
        assert bound == pytest.approx(1.0)
        assert observed >= bound - 1e-9

    def test_alternating(self):
        dp = DominantPart(0, 1.0, ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j)))
        for n in (1, 2, 9, 100):
            observed, bound = tail_lower_bound_check(dp, n)
            assert observed == pytest.approx(2.0)  # window of length 2 hits an even index
            assert bound == pytest.approx(1.0)

    def test_random_property(self):
        rng = random.Random(5)
        for _ in range(60):
            l = rng.randint(1, 3)
            while True:
                betas = [cmath.exp(2j * math.pi * rng.random()) for _ in range(l)]
                gaps = [
                    abs(betas[u] - betas[v])
                    for u in range(l)
                    for v in range(u + 1, l)
                ]
                if all(g > 1e-6 for g in gaps):
                    break
            gammas = [
                rng.uniform(0.1, 10.0) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(l)
            ]
            dp = DominantPart(0, 1.0, tuple(zip(gammas, betas)))
            for _ in range(25):
                n = rng.randint(1, 10**4)
                observed, bound = tail_lower_bound_check(dp, n)
                assert observed >= bound - 1e-9


class TestFallingFactorial:
    def test_base(self):
        assert falling_factorial(0) == Polynomial((1,))

    def test_k2(self):
        assert falling_factorial(2) == Polynomial((0, -1, 1))  # x^2 - x

    def test_value(self):
        assert falling_factorial(3)(5) == 60  # 5*4*3

    def test_monic_degree(self):
        for k in range(8):
            p = falling_factorial(k)
            assert p.degree == k and p.leading == 1

    def test_multiplicativity(self):
        for k in range(21):
            lhs = falling_factorial(k + 1)
            rhs = falling_factorial(k) * Polynomial((-k, 1))
            assert lhs == rhs


class TestAsymptoticConstant:
    def test_positive(self):
        assert catalan_asymptotic_constant(100) > 0

    def test_convergence_direction(self):
        limit = 1 / (4 * math.sqrt(math.pi))
        e200 = catalan_asymptotic_constant(200)
        e2000 = catalan_asymptotic_constant(2000)
        assert abs(e200 - e2000) < abs(e200 - limit)

    def test_domain(self):
        with pytest.raises(ValueError):
            catalan_asymptotic_constant(99)
