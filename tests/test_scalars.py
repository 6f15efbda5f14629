"""Exact Laurent/rational scalar arithmetic, the bar involution, and the
quantum integer combinatorics."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import qminor
from qminor.scalars import (LaurentPoly, RatScalar, quantum_integer,
                            quantum_factorial, quantum_binomial, laurent_gcd,
                            add_term, InexactDivision, _exact_divide,
                            _reduce, _to_dense, _normalize_poly)


def q(k, c=1):
    return LaurentPoly.q_power(k, c)


def rq(k, c=1):
    return RatScalar.q_power(k, c)


def test_laurent_ring_axioms():
    a = q(2) + q(0)          # q^2 + 1
    b = q(1) - q(-1)
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b
    assert a - a == LaurentPoly()
    assert (a * b).coeff(3) == 1


def test_laurent_zero_and_one():
    zero = LaurentPoly()
    one = LaurentPoly.from_int(1)
    assert zero.is_zero() and not one.is_zero()
    assert one.is_one()
    assert (q(3) * zero).is_zero()


def test_laurent_pow():
    a = q(1) + q(-1)
    assert a ** 0 == LaurentPoly.from_int(1)
    assert a ** 2 == q(2) + q(0, 2) + q(-2)


def test_bar_swaps_q_and_q_inverse():
    # bar(q^2 + 1) = q^{-2} + 1; a bar-symmetric element is fixed.
    assert (q(2) + q(0)).bar() == q(-2) + q(0)
    sym = q(1) + q(-1)
    assert sym.bar() == sym


def test_bar_on_rational_scalars():
    # bar(1/(1 - q^{-2})) = 1/(1 - q^2): substitute and clear denominators.
    s = RatScalar(LaurentPoly.from_int(1), LaurentPoly.from_int(1) - q(-2))
    t = RatScalar(LaurentPoly.from_int(1), LaurentPoly.from_int(1) - q(2))
    assert s.bar() == t
    assert s.bar().bar() == s


def test_rat_field_axioms():
    a = RatScalar(q(1) + q(0), q(2) - q(0))
    b = rq(-3, 5)
    assert a * (RatScalar.one() / a) == RatScalar.one()
    assert (a + b) - b == a
    assert a / b * b == a
    with pytest.raises(ZeroDivisionError):
        a / RatScalar.zero()


def test_rat_reduction_is_canonical():
    # (1 - q^2)/(1 - q^4) and 1/(1 + q^2) are the same reduced fraction.
    a = RatScalar(LaurentPoly.from_int(1) - q(2),
                  LaurentPoly.from_int(1) - q(4))
    b = RatScalar(LaurentPoly.from_int(1), LaurentPoly.from_int(1) + q(2))
    assert a == b
    assert hash(a) == hash(b)


def test_eval_at_zero():
    # (1 + q^3)(0) = 1; (q/(1+q))(0) = 0; (1/(1-q^{-2}))(0) = 0 after
    # rewriting as q^2/(q^2 - 1).
    assert RatScalar.from_laurent(q(0) + q(3)).eval_at_zero() == 1
    assert RatScalar(q(1), q(0) + q(1)).eval_at_zero() == 0
    s = RatScalar(LaurentPoly.from_int(1), LaurentPoly.from_int(1) - q(-2))
    assert s.eval_at_zero() == 0
    assert RatScalar(q(0, 3), q(0, 2)).eval_at_zero() == Fraction(3, 2)


def test_is_in_qZq():
    assert RatScalar.from_laurent(q(1) + q(3, 2)).is_in_qZq()
    assert not RatScalar.from_laurent(q(0) + q(1)).is_in_qZq()
    assert not rq(-1).is_in_qZq()
    assert RatScalar.zero().is_in_qZq()


def test_is_q_power():
    assert rq(5).is_q_power() == 5
    assert rq(-2).is_q_power() == -2
    assert rq(0).is_q_power() == 0
    assert rq(3, 2).is_q_power() is None
    assert (rq(1) + rq(3)).is_q_power() is None
    assert RatScalar.zero().is_q_power() is None


def test_laurent_gcd_divides_both():
    a = (q(0) - q(2)) * (q(0) + q(1))
    b = (q(0) - q(2)) * (q(3) + q(0, 7))
    g = laurent_gcd(a, b)
    assert not RatScalar(a, g).is_zero()
    assert RatScalar(a, g).is_laurent()
    assert RatScalar(b, g).is_laurent()


def test_quantum_integers():
    # [1] = 1; [2] = q + q^{-1}; with squared-length norm 4, [2] = q^2 + q^{-2}.
    assert quantum_integer(1, 2) == LaurentPoly.from_int(1)
    assert quantum_integer(2, 2) == q(1) + q(-1)
    assert quantum_integer(2, 4) == q(2) + q(-2)
    assert quantum_integer(3, 2) == q(2) + q(0) + q(-2)


def test_quantum_factorial_and_binomial():
    assert quantum_factorial(0, 2) == LaurentPoly.from_int(1)
    assert quantum_factorial(3, 2) == (quantum_integer(3, 2)
                                       * quantum_integer(2, 2))
    # [4 choose 2] = [4]![2]!^{-2} is bar-symmetric with positive coefficients.
    b = quantum_binomial(4, 2, 2)
    assert b == q(4) + q(2) + q(0, 2) + q(-2) + q(-4)
    assert b.bar() == b


def test_quantum_binomial_matches_reduced_fraction():
    # the exact quotient against the reduced RatScalar it replaced
    for norm in (2, 4, 6):
        for n in range(9):
            for k in range(n + 1):
                num = LaurentPoly.from_int(1)
                for j in range(k):
                    num = num * quantum_integer(n - j, norm)
                frac = RatScalar(num, quantum_factorial(k, norm))
                assert quantum_binomial(n, k, norm) == frac.as_laurent()


def test_quantum_factorial_bar_symmetric():
    for k in range(5):
        for norm in (2, 4):
            f = quantum_factorial(k, norm)
            assert f.bar() == f


def test_non_exact_division_raises():
    # 1 + q^2 = (1 + q)(q - 1) + 2
    with pytest.raises(InexactDivision):
        _exact_divide(q(0) + q(2), q(0) + q(1))
    with pytest.raises(InexactDivision):
        _exact_divide(q(0, 3) + q(1), q(0, 2))
    assert _exact_divide(q(0) - q(2), q(0) + q(1)) == q(0) - q(1)


def test_exactness_guard_survives_python_O():
    code = ("import sys\n"
            "from qminor.scalars import LaurentPoly, InexactDivision, "
            "_exact_divide\n"
            "print(sys.flags.optimize)\n"
            "try:\n"
            "    _exact_divide(LaurentPoly({0: 1, 2: 1}), "
            "LaurentPoly({0: 1, 1: 1}))\n"
            "except InexactDivision:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qminor.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\nraised\n"


# -- the Euclid-over-Fraction gcd, kept as the oracle ---------------------------

def _oracle_poly_mod(a, b):
    """Remainder of a by b over Q, dense Fraction lists (b nonzero)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _oracle_gcd(a, b):
    """Euclid over Q, then content times the primitive part, normalized."""
    if a.is_zero():
        return _normalize_poly(b)
    if b.is_zero():
        return _normalize_poly(a)
    _, da = _to_dense(a)
    _, db = _to_dense(b)
    content = gcd(gcd(*da), gcd(*db))
    x, y = [Fraction(c) for c in da], [Fraction(c) for c in db]
    while any(y):
        x, y = y, _oracle_poly_mod(x, y)
    den_lcm = 1
    for c in x:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in x]
    cont = gcd(*ints)
    ints = [c // cont for c in ints]
    g = LaurentPoly({e: c * content for e, c in enumerate(ints)})
    return _normalize_poly(g)


# -- property tests -------------------------------------------------------------

_FACTORS = [q(0) + q(1), q(0) - q(1), q(0) + q(2), q(0) - q(2),
            q(0) + q(3), q(0) - q(3), q(0) + q(1) + q(2),
            q(0) - q(1) + q(2), q(0, 2), q(0, 3), q(0, -1), q(1), q(-2)]

_cofactor = st.just(q(0)) | st.dictionaries(
    st.integers(-4, 4), st.integers(-5, -1) | st.integers(1, 5),
    min_size=1, max_size=4).map(LaurentPoly)


@st.composite
def _products(draw, max_factors=3):
    """A product of cyclotomic-style factors, small contents and powers
    of q, times a small nonzero Laurent polynomial (often 1)."""
    p = draw(_cofactor)
    for f in draw(st.lists(st.sampled_from(_FACTORS), max_size=max_factors)):
        p = p * f
    return p


_nonzero = _products()
_operand = _products() | st.just(LaurentPoly())


@st.composite
def _rat(draw):
    return RatScalar(draw(_operand), draw(_nonzero))


@settings(max_examples=300, deadline=None)
@given(_nonzero, _operand, _operand)
def test_gcd_matches_oracle(g, a, b):
    a, b = g * a, g * b
    assert laurent_gcd(a, b) == _oracle_gcd(a, b)
    assert laurent_gcd(b, a) == laurent_gcd(a, b)


@settings(deadline=None)
@given(_nonzero, _operand, _operand)
def test_gcd_divides_both(g, a, b):
    a, b = g * a, g * b
    d = laurent_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert d.is_zero()
        return
    assert d.min_exp() == 0 and d.coeff(0) > 0
    assert gcd(*d.coeffs.values()) == gcd(*a.coeffs.values(),
                                          *b.coeffs.values())
    for x in (a, b):
        assert _exact_divide(x, d) * d == x
    # g divides both operands, so it divides their gcd
    assert _exact_divide(d, g) * g == d


@settings(max_examples=300, deadline=None)
@given(_operand, _nonzero, _nonzero)
def test_exact_divide_matches_the_fraction_route(a, b, h):
    # _exact_divide(num, den) succeeds exactly when the reduced fraction
    # num/den is Laurent, and then gives its numerator: on quotients that
    # are Laurent, that miss by a polynomial factor, by the integer
    # content 2 or 3, or carry powers of q on either side
    for num, den in ((a * b * h, b * h), (a * h, b * h), (a * h, h * 2),
                     (a * h * 3, (h * 2).shift(-1)), (a.shift(3), b)):
        r = RatScalar(num, den)
        try:
            c = _exact_divide(num, den)
        except InexactDivision:
            assert not r.is_laurent(), (num, den)
        else:
            assert r.is_laurent() and c == r.as_laurent(), (num, den)


@settings(deadline=None)
@given(_operand, _nonzero, _nonzero)
def test_reduce_is_canonical(p, r, h):
    num, den = _reduce(p, r)
    assert _reduce(p * h, r * h) == (num, den)
    assert den.min_exp() == 0 and den.coeff(0) > 0
    assert laurent_gcd(num, den).is_one() or num.is_zero()


@settings(deadline=None)
@given(_rat(), _rat(), _rat())
def test_rat_ring_axioms(a, b, c):
    zero, one = RatScalar.zero(), RatScalar.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    if not a.is_zero():
        assert a * (one / a) == one


@settings(deadline=None)
@given(_rat(), _rat())
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@settings(deadline=None)
@given(st.dictionaries(st.integers(-5, 5), st.integers(-3, 3)),
       st.integers(-6, 6))
def test_shift_neg_bar_need_no_zero_filter(raw, k):
    # these three skip the constructor's zero filter
    p = LaurentPoly(raw)
    for got, want in ((p.shift(k), {e + k: c for e, c in raw.items()}),
                      (-p, {e: -c for e, c in raw.items()}),
                      (p.bar(), {-e: c for e, c in raw.items()})):
        assert 0 not in got.coeffs.values()
        assert got == LaurentPoly(want)


@settings(deadline=None)
@given(_rat(), st.integers(-6, 6))
def test_rat_shift_is_multiplication_by_q_power(a, k):
    # skips the reduction: must agree structurally with the reduced product
    assert a.shift(k) == a * rq(k)


def _oracle_mul(a, b):
    """The double loop over both operands' terms, with no fast path."""
    res = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            res[e1 + e2] = res.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in res.items() if c}


_mul_operand = (st.just(LaurentPoly()) | st.just(q(0))
                | st.builds(q, st.integers(-6, 6), st.sampled_from([1, -1]))
                | st.builds(q, st.integers(-6, 6),
                            st.integers(-9, 9).filter(bool))
                | st.dictionaries(st.integers(-5, 5), st.integers(-4, 4),
                                  max_size=5).map(LaurentPoly))


@settings(max_examples=300, deadline=None)
@given(_mul_operand, _mul_operand)
def test_mul_matches_double_loop(a, b):
    for got in (a * b, b * a):
        assert got.coeffs == _oracle_mul(a, b)
        assert 0 not in got.coeffs.values()


_laurent_rat = _mul_operand.map(RatScalar.from_laurent)


@settings(max_examples=300, deadline=None)
@given(_laurent_rat, _laurent_rat)
def test_laurent_rat_mul_add_match_general_construction(a, b):
    # the general formulas through the reducing constructor
    def prod(x, y):
        return LaurentPoly(_oracle_mul(x, y))

    mul = RatScalar(prod(a.num, b.num), prod(a.den, b.den))
    add = RatScalar(prod(a.num, b.den) + prod(b.num, a.den),
                    prod(a.den, b.den))
    for got, want in ((a * b, mul), (a + b, add)):
        assert (got.num, got.den) == (want.num, want.den)
        assert 0 not in got.num.coeffs.values()


# -- Laurent predicates and mixed operands --------------------------------------

_pred_operand = (_mul_operand
                 | st.builds(q, st.integers(-3, 3),
                             st.sampled_from([1, -1, 2]))
                 | st.dictionaries(st.integers(0, 4), st.integers(-3, 3),
                                   max_size=4).map(LaurentPoly))


@settings(max_examples=300, deadline=None)
@given(_pred_operand)
def test_laurent_predicates_match_rat_predicates(p):
    r = RatScalar.from_laurent(p)
    assert p.is_q_power() == r.is_q_power()
    assert p.is_in_qZq() == r.is_in_qZq()


@settings(deadline=None)
@given(_rat())
def test_rat_min_exp_is_the_valuation(a):
    if a.is_zero():
        with pytest.raises(ValueError):
            a.min_exp()
        return
    v = a.min_exp()
    assert v == a.num.min_exp()
    # q^-v a is finite and nonzero at q = 0
    assert a.shift(-v).eval_at_zero() != 0


@settings(deadline=None)
@given(_mul_operand, _rat())
def test_mixed_laurent_rat_ops_resolve_in_rat(p, a):
    r = RatScalar.from_laurent(p)
    for got, want in ((p + a, r + a), (a + p, a + r), (p - a, r - a),
                      (a - p, a - r), (p * a, r * a), (a * p, a * r)):
        assert isinstance(got, RatScalar)
        assert got == want


# -- sparse accumulation ----------------------------------------------------------

def _oracle_add_term(acc, key, c):
    """The loop add_term replaced: add to a stored zero, drop a zero sum."""
    s = acc.get(key, RatScalar.zero()) + c
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


_add_operand = (st.just(RatScalar.zero())
                | st.sampled_from([RatScalar.one(), -RatScalar.one()])
                | st.builds(rq, st.integers(-4, 4), st.sampled_from([1, -1]))
                | _rat())


@st.composite
def _add_ops(draw):
    """(key, c) additions on a few keys, then the negations of some of
    them, so that sums cancel."""
    ops = draw(st.lists(st.tuples(st.integers(0, 3), _add_operand),
                        max_size=8))
    if ops:
        undo = draw(st.lists(st.sampled_from(ops), max_size=len(ops)))
        ops += [(k, -c) for k, c in undo]
    return ops


@settings(max_examples=300, deadline=None)
@given(_add_ops())
def test_add_term_matches_add_to_zero_loop(ops):
    got, want = {}, {}
    for key, c in ops:
        add_term(got, key, c)
        _oracle_add_term(want, key, c)
        assert list(got.items()) == list(want.items())
        assert not any(v.is_zero() for v in got.values())


def test_word_sum_on_disjoint_keys_takes_no_gcd(monkeypatch):
    # a new key stores the coefficient as it is: no reduction, so no gcd
    from qminor import scalars
    from qminor.qea import WordExpr
    from qminor.rootdata import CartanDatum
    datum = CartanDatum("A2")
    c = RatScalar(q(0), q(0) - q(2))
    x = WordExpr(datum, {((1, 1),): c, ((1, 1), (2, 1)): c * rq(1)})
    y = WordExpr(datum, {((2, 1),): -c, ((2, 1), (1, 1)): c + rq(3)})
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return laurent_gcd(a, b)

    monkeypatch.setattr(scalars, "laurent_gcd", counting_gcd)
    total = x + y
    assert calls == []
    assert total.terms == {**x.terms, **y.terms}
