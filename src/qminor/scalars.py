"""Exact arithmetic in Z[q, q^-1] and its fraction field Q(q).

Laurent polynomials are sparse maps exponent -> integer coefficient.
Fractions are kept reduced, with the denominator normalized to an
ordinary polynomial in q whose constant term is positive, so that
equality is structural.
"""

from fractions import Fraction
from math import gcd


class PoleAtZero(ArithmeticError):
    """Raised when evaluating at q = 0 a scalar with a pole there."""


class InexactDivision(ArithmeticError):
    """Raised when a Laurent polynomial division that must be exact is not."""


class LaurentPoly:
    """A Laurent polynomial over Z, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def _nonzero(cls, coeffs):
        """Wrap a dict that has no zero coefficient, skipping the filter."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def from_int(cls, n):
        return cls({0: n})

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls({k: coeff})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: 1}

    def is_monomial(self):
        return len(self.coeffs) == 1

    def is_q_power(self):
        """Return k if self == q^k, else None."""
        if len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            if c == 1:
                return e
        return None

    def is_in_qZq(self):
        return all(e > 0 for e in self.coeffs)

    # -- structure ----------------------------------------------------

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coeff(self, e):
        return self.coeffs.get(e, 0)

    def shift(self, k):
        """Multiply by q^k."""
        if k == 0:
            return self
        return LaurentPoly._nonzero({e + k: c for e, c in self.coeffs.items()})

    # -- arithmetic ---------------------------------------------------

    # A RatScalar operand gets NotImplemented, so that RatScalar's
    # reflected + or * computes the mixed value in Q(q).

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, RatScalar):
                return NotImplemented
            other = _as_laurent(other)
        res = dict(self.coeffs)
        for e, c in other.coeffs.items():
            res[e] = res.get(e, 0) + c
        return LaurentPoly(res)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._nonzero({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        """The product.  A 1 operand returns the other one (values are
        never mutated, so sharing is safe); a c q^k operand shifts and
        scales it, which cannot create a zero coefficient."""
        if not isinstance(other, LaurentPoly):
            if isinstance(other, RatScalar):
                return NotImplemented
            other = _as_laurent(other)
        x, y = ((self, other) if len(self.coeffs) <= len(other.coeffs)
                else (other, self))
        if len(x.coeffs) == 1:
            ((k, c),) = x.coeffs.items()
            if k == 0 and c == 1:
                return y
            return LaurentPoly._nonzero(
                {e + k: c * v for e, v in y.coeffs.items()})
        res = {}
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                e = e1 + e2
                res[e] = res.get(e, 0) + c1 * c2
        return LaurentPoly(res)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use RatScalar")
        res = LaurentPoly({0: 1})
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def bar(self):
        """Substitute q -> q^-1."""
        return LaurentPoly._nonzero({-e: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- rendering ----------------------------------------------------

    def render(self):
        """Textual form with ascending exponents, e.g. 'q^-1 + 2 + q^3'."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                qpow = "q" if e == 1 else "q^%d" % e
                if c == 1:
                    term = qpow
                elif c == -1:
                    term = "-" + qpow
                else:
                    term = "%d*%s" % (c, qpow)
            parts.append(term)
        return join_signed(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


def join_signed(parts):
    """Join rendered terms into a sum: a term with a leading '-' is
    subtracted, so ['a', '-b', 'c'] gives 'a - b + c'."""
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def add_term(acc, key, c):
    """acc[key] += c on a sparse dict of ring elements, in place.

    acc holds no zero value and keeps holding none: a key not yet present
    stores c itself, untouched by any arithmetic (so a reduced RatScalar
    is not reduced again), unless c is zero; a key whose sum is zero is
    removed.  The result equals acc.get(key, zero) + c with the zeros
    dropped, value for value and in the same key order.
    """
    s = acc.get(key)
    if s is not None:
        c = s + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.from_int(x)
    raise TypeError("cannot coerce %r to LaurentPoly" % (x,))


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


# -- gcd machinery ----------------------------------------------------
#
# Only Python ints: a primitive polynomial remainder sequence over dense
# coefficient lists (index = exponent), with a content-only fast path.

def _to_dense(p):
    """Laurent -> (shift, dense list of int coeffs from exponent 0)."""
    lo = p.min_exp()
    hi = p.max_exp()
    dense = [0] * (hi - lo + 1)
    for e, c in p.coeffs.items():
        dense[e - lo] = c
    return lo, dense


def _primitive(dense):
    """dense divided by its (positive) content."""
    c = gcd(*dense)
    return dense if c == 1 else [x // c for x in dense]


def _pseudo_rem(a, b):
    """A pseudo-remainder of a by b (dense, len(a) >= len(b)): an integer
    multiple of the remainder over Q, with its factors of q removed."""
    a = list(a)
    n = len(b) - 1
    lead = b[-1]
    low = b[:-1]
    while len(a) > n:
        c = a.pop()
        if c:
            shift = len(a) - n
            a = [lead * x for x in a]
            for i, bc in enumerate(low, shift):
                a[i] -= c * bc
    while a and a[-1] == 0:
        a.pop()
    k = 0
    while k < len(a) and a[k] == 0:
        k += 1
    return a[k:]


def laurent_gcd(a, b):
    """Gcd in Z[q, q^-1], normalized to an ordinary primitive polynomial
    with positive constant term (unique up to the unit group +-q^k)."""
    if a.is_zero():
        return _normalize_poly(b)
    if b.is_zero():
        return _normalize_poly(a)
    if a.is_monomial() or b.is_monomial():
        return LaurentPoly({0: gcd(*a.coeffs.values(), *b.coeffs.values())})
    _, x = _to_dense(a)
    _, y = _to_dense(b)
    content = gcd(gcd(*x), gcd(*y))
    x, y = _primitive(x), _primitive(y)
    if len(x) < len(y):
        x, y = y, x
    # Both have a nonzero constant term, so q divides neither the gcd nor
    # any y below, and the remainders may drop their factors of q.
    while len(y) > 1:
        r = _pseudo_rem(x, y)
        if not r:
            break
        x, y = y, _primitive(r)
    if len(y) == 1:
        return LaurentPoly({0: content})
    if y[0] < 0:
        content = -content
    return LaurentPoly({e: content * c for e, c in enumerate(y)})


def _normalize_poly(p):
    """Shift to valuation 0 and make the constant term positive."""
    if p.is_zero():
        return p
    p = p.shift(-p.min_exp())
    if p.coeff(0) < 0:
        p = -p
    return p


def _exact_divide(a, g):
    """Divide Laurent a by Laurent g; raises InexactDivision unless g
    divides a in Z[q, q^-1]."""
    if g.is_one():
        return a
    if a.is_zero():
        return a
    lo_a, da = _to_dense(a)
    lo_g, dg = _to_dense(g)
    quot = [0] * (len(da) - len(dg) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = da[i + len(dg) - 1]
        if c % dg[-1]:
            raise InexactDivision("%s does not divide %s"
                                  % (g.render(), a.render()))
        qc = c // dg[-1]
        quot[i] = qc
        if qc:
            for j, gc in enumerate(dg):
                da[i + j] -= qc * gc
    if any(da):
        raise InexactDivision("%s does not divide %s"
                              % (g.render(), a.render()))
    return LaurentPoly({e + lo_a - lo_g: c for e, c in enumerate(quot) if c})


class RatScalar:
    """An element of Q(q) as a reduced fraction of Laurent polynomials.

    Normalization: the denominator is an ordinary polynomial in q with
    positive nonzero constant term, and gcd(num, den) is a unit.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        num = _as_laurent(num)
        den = ONE if den is None else _as_laurent(den)
        if den.is_zero():
            raise ZeroDivisionError("RatScalar with zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_laurent(cls, p):
        return cls(p, ONE, _reduced=True)

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls(LaurentPoly.q_power(k, coeff), ONE, _reduced=True)

    @classmethod
    def one(cls):
        return cls(ONE, ONE, _reduced=True)

    @classmethod
    def zero(cls):
        return cls(ZERO, ONE, _reduced=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_rat(other)
        if self.den.is_one() and other.den.is_one():
            return RatScalar(self.num + other.num, ONE, _reduced=True)
        return RatScalar(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatScalar(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-_as_rat(other))

    def __rsub__(self, other):
        return _as_rat(other) + (-self)

    def __mul__(self, other):
        other = _as_rat(other)
        if self.den.is_one() and other.den.is_one():
            return RatScalar(self.num * other.num, ONE, _reduced=True)
        return RatScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rat(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RatScalar")
        return RatScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rat(other) / self

    def __pow__(self, n):
        if n < 0:
            return RatScalar.one() / (self ** (-n))
        res = RatScalar.one()
        for _ in range(n):
            res = res * self
        return res

    def shift(self, k):
        """Multiply by q^k; q is a unit, so the fraction stays reduced."""
        return RatScalar(self.num.shift(k), self.den, _reduced=True)

    def bar(self):
        """The Q-automorphism q -> q^-1 of Q(q)."""
        return RatScalar(self.num.bar(), self.den.bar())

    def __eq__(self, other):
        try:
            other = _as_rat(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- predicates and evaluation -------------------------------------

    def is_laurent(self):
        return self.den.is_one()

    def as_laurent(self):
        if not self.den.is_one():
            raise ValueError("%r is not a Laurent polynomial" % self)
        return self.num

    def is_q_power(self):
        """Return k if self == q^k, else None."""
        return self.num.is_q_power() if self.den.is_one() else None

    def min_exp(self):
        """The q-adic valuation: that of num, as den(0) != 0."""
        return self.num.min_exp()

    def is_in_qZq(self):
        """True iff self is a polynomial in q with integer coefficients
        and zero constant term."""
        if self.num.is_zero():
            return True
        if not self.den.is_monomial():
            return False
        # den is c * q^0 after normalization
        c = self.den.coeff(0)
        if c == 0:
            return False
        return (self.num.min_exp() >= 1
                and all(v % c == 0 for v in self.num.coeffs.values()))

    def eval_at_zero(self):
        """The value at q = 0 as a Fraction; raises PoleAtZero on a pole."""
        if self.num.is_zero():
            return Fraction(0)
        if self.num.min_exp() < 0:
            raise PoleAtZero("pole at q = 0: %s" % self.render())
        if self.num.min_exp() > 0:
            return Fraction(0)
        return Fraction(self.num.coeff(0), self.den.coeff(0))

    # -- rendering ----------------------------------------------------

    def render(self):
        if self.den.is_one():
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __repr__(self):
        return "RatScalar(%s)" % self.render()


def _reduce(num, den):
    if num.is_zero():
        return ZERO, ONE
    if den.is_one():
        return num, den
    g = laurent_gcd(num, den)
    if not g.is_one():
        num = _exact_divide(num, g)
        den = _exact_divide(den, g)
    # normalize denominator: ordinary polynomial, positive constant term
    shift = -den.min_exp()
    den = den.shift(shift)
    num = num.shift(shift)
    if den.coeff(0) < 0:
        den, num = -den, -num
    return num, den


def _as_rat(x):
    if isinstance(x, RatScalar):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RatScalar(_as_laurent(x), ONE, _reduced=isinstance(x, int))
    raise TypeError("cannot coerce %r to RatScalar" % (x,))


# -- quantum integers -------------------------------------------------

def quantum_integer(k, norm):
    """[k] at q_alpha = q^(norm/2), as a Laurent polynomial.

    norm is the squared length (alpha, alpha); it must be even positive.
    """
    if k <= 0:
        raise ValueError("quantum_integer needs k >= 1, got %d" % k)
    if norm <= 0 or norm % 2 != 0:
        raise ValueError("norm must be even positive, got %d" % norm)
    d = norm // 2
    return LaurentPoly({d * (k - 1 - 2 * j): 1 for j in range(k)})


def quantum_factorial(k, norm):
    """[k]! at q_alpha = q^(norm/2)."""
    if k < 0:
        raise ValueError("negative quantum factorial")
    res = ONE
    for j in range(2, k + 1):
        res = res * quantum_integer(j, norm)
    return res


def quantum_binomial(n, k, norm):
    """Gaussian binomial [n choose k] at q_alpha = q^(norm/2), an exact
    quotient in Z[q, q^-1], so it takes no gcd."""
    if k < 0 or k > n:
        return ZERO
    num = ONE
    for j in range(k):
        num = num * quantum_integer(n - j, norm)
    return _exact_divide(num, quantum_factorial(k, norm))
