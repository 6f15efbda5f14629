"""Word expressions, the triangular algebra, the Hopf pairing and canonical
forms."""

import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qminor.scalars import RatScalar, LaurentPoly, ZERO, ONE, add_term
from qminor.rootdata import CartanDatum, form
from qminor.qea import (WordExpr, TriExpr, pairing, tri_mul, serre_element,
                        CanonicalForm, canonical_form, expr_equal,
                        expr_is_zero, sigma_eta,
                        word_to_plain, plain_factor,
                        canonicalize_word, plain_to_pairs, _normal_order,
                        _wt_vec, _vec_add)
from qminor.pbw import pbw_monomial, f_pbw_monomial, data_of_weight
from qminor.checks import standard_words, weights_up_to

from braid_oracle import _braid_gen

A2 = CartanDatum("A2")
A3 = CartanDatum("A3")
B2 = CartanDatum("B2")


def E(datum, i, k=1):
    return WordExpr.generator(datum, i, k)


def F(datum, i, k=1):
    return WordExpr.generator(datum, i, k, side="F")


def qp(k, c=1):
    return RatScalar.q_power(k, c)


def test_word_expr_ring():
    x = E(A2, 1) * E(A2, 2)
    y = E(A2, 2) * E(A2, 1)
    assert x + y == y + x
    assert x - x == WordExpr.zero(A2)
    assert (x + y).scale(qp(2)) == x.scale(qp(2)) + y.scale(qp(2))
    assert x * WordExpr.one(A2) == x


def test_divided_power_merge():
    # E_i E_i^{(k)} = [k+1]_{q_i} E_i^{(k+1)}.
    x = E(A2, 1) * E(A2, 1)
    two = RatScalar.from_laurent(LaurentPoly.q_power(1)
                                 + LaurentPoly.q_power(-1))
    assert x == E(A2, 1, 2).scale(two)


def test_weight_and_homogeneity():
    x = E(A2, 1, 2) * E(A2, 2)
    assert x.is_homogeneous()
    assert x.weight() == (2, 1)
    mixed = E(A2, 1) + E(A2, 2)
    assert not mixed.is_homogeneous()
    parts = mixed.homogeneous_components()
    assert len(parts) == 2


def test_eta_inverts_scalars_and_fixes_words():
    x = (E(A2, 1) * E(A2, 2)).scale(qp(1))
    assert x.eta() == (E(A2, 1) * E(A2, 2)).scale(qp(-1))
    assert x.eta().eta() == x


def test_sigma_reverses_words():
    x = E(A2, 1) * E(A2, 2)
    assert x.sigma() == E(A2, 2) * E(A2, 1)
    assert (x.scale(qp(3))).sigma() == (E(A2, 2) * E(A2, 1)).scale(qp(3))


def test_sigma_eta_example():
    # sigma_eta(E1E2 - q^{-1}E2E1) = E2E1 - q E1E2.
    x = E(A2, 1) * E(A2, 2) - (E(A2, 2) * E(A2, 1)).scale(qp(-1))
    assert sigma_eta(x) == E(A2, 2) * E(A2, 1) - (E(A2, 1) * E(A2, 2)).scale(qp(1))


def test_triangular_commutation_ef():
    # E_1F_1 = F_1E_1 + (K_{a1} - K_{-a1})/(q - q^{-1}); E_1F_2 = F_2E_1.
    lhs = tri_mul(TriExpr.e_gen(A2, 1), TriExpr.f_gen(A2, 1))
    coeff = RatScalar.one() / (qp(1) - qp(-1))
    rhs = (tri_mul(TriExpr.f_gen(A2, 1), TriExpr.e_gen(A2, 1))
           + TriExpr.k_elt(A2, (1, 0)).scale(coeff)
           - TriExpr.k_elt(A2, (-1, 0)).scale(coeff))
    assert lhs == rhs
    assert tri_mul(TriExpr.e_gen(A2, 1), TriExpr.f_gen(A2, 2)) == \
        tri_mul(TriExpr.f_gen(A2, 2), TriExpr.e_gen(A2, 1))


def test_triangular_commutation_ke():
    # E_1 K_{a1} = q^{-<a1,a1>} K_{a1} E_1 = q^{-2} K_{a1} E_1.
    K1 = TriExpr.k_elt(A2, (1, 0))
    lhs = tri_mul(TriExpr.e_gen(A2, 1), K1)
    rhs = tri_mul(K1, TriExpr.e_gen(A2, 1)).scale(qp(-2))
    assert lhs == rhs


def test_generator_pairing_axioms():
    # (E_i, F_j) = delta_ij / (1 - q_i^{-2}); (K_lam, K_mu) = q^{-(lam,mu)}.
    one = RatScalar.one()
    assert pairing(E(A2, 1), F(A2, 1)) == one / (one - qp(-2))
    assert pairing(E(A2, 1), F(A2, 2)).is_zero()
    assert pairing(E(B2, 2), F(B2, 2)) == one / (one - qp(-4))
    assert pairing(TriExpr.k_elt(A2, (1, 0)), TriExpr.k_elt(A2, (0, 1))) == qp(1)
    assert pairing(TriExpr.k_elt(A2, (1, 0)), TriExpr.k_elt(A2, (1, 0))) == qp(-2)


def test_pairing_side_enforcement():
    with pytest.raises(ValueError):
        pairing(F(A2, 1), F(A2, 1))
    with pytest.raises(ValueError):
        pairing(E(A2, 1), E(A2, 1))


def test_serre_elements_vanish():
    # The quantum Serre element is nonzero as a word expression but has
    # vanishing canonical form (zero in the algebra).
    for datum in (A2, A3, B2):
        for i in datum.indices:
            for j in datum.indices:
                if i == j or datum.cartan[i - 1][j - 1] == 0:
                    continue
                s = serre_element(datum, i, j)
                assert not s.is_zero()
                assert canonical_form(s).is_zero()
                assert expr_is_zero(s)


def test_serre_element_shape_a2():
    # S_12 = E_1^{(2)}E_2 - E_1E_2E_1 + E_2E_1^{(2)}.
    s = serre_element(A2, 1, 2)
    expected = (E(A2, 1, 2) * E(A2, 2)
                - E(A2, 1) * E(A2, 2) * E(A2, 1)
                + E(A2, 2) * E(A2, 1, 2))
    assert s == expected


def test_canonical_form_separates():
    x = E(A2, 1) * E(A2, 2)
    y = E(A2, 2) * E(A2, 1)
    assert canonical_form(x) != canonical_form(y)
    assert expr_equal(x, x)
    assert not expr_equal(x, y)
    # q E2E1 + E_{b2} = E1E2 is a nontrivial algebra identity:
    b2 = E(A2, 1) * E(A2, 2) - y.scale(qp(-1))
    assert expr_equal(y.scale(qp(-1)) + b2, x)


def test_canonical_form_of_zero():
    assert canonical_form(WordExpr.zero(A2)).is_zero()


# -- the pairing by word-pair cores, kept as the oracle -----------------------

def plain_words_of_weight(datum, mu):
    """All plain words of weight mu (a root-coordinate sequence), sorted
    lexicographically."""
    letters = []
    for i, c in enumerate(mu, start=1):
        if c < 0:
            return ()
        letters.extend([i] * c)
    out = []

    def build(prefix, remaining):
        if not any(remaining):
            out.append(tuple(prefix))
            return
        for i in range(1, datum.rank + 1):
            if remaining[i - 1]:
                remaining[i - 1] -= 1
                prefix.append(i)
                build(prefix, remaining)
                prefix.pop()
                remaining[i - 1] += 1

    build([], list(mu))
    return tuple(out)


def generator_pairing(datum, i):
    """(E_i, F_i) = 1/(1 - q_i^{-2})."""
    return RatScalar(ONE, LaurentPoly({0: 1, -2 * datum.d[i - 1]: -1}))


@cache
def _pairing_core(datum, eplain, fplain):
    """The q-power part of (E-word, F-word): the full pairing with the
    generator factor prod_a (E_a, F_a) divided out.  A Laurent polynomial,
    by recursion on the first E-letter.

    Coproduct: Delta(E_i) = E_i x 1 + K_i x E_i,
    Delta(F_i) = F_i x K_-i + 1 x F_i.
    """
    if sorted(eplain) != sorted(fplain):
        return ZERO
    if not eplain:
        return ONE
    a = eplain[0]
    rest = eplain[1:]
    row = datum.form_matrix[a - 1]
    total = ZERO
    run = 0
    for t, b in enumerate(fplain):
        if b == a:
            sub = _pairing_core(datum, rest, fplain[:t] + fplain[t + 1:])
            if not sub.is_zero():
                total = total + sub.shift(run)
        run -= row[b - 1]
    return total


def _oracle_pairing(x, y):
    """The Hopf pairing term pair by term pair: c1 c2, both plain-word
    factors, the generator factor and the shifted core, for every
    (x-term, y-term)."""
    if isinstance(x, WordExpr):
        x = TriExpr.from_word_expr(x)
    if isinstance(y, WordExpr):
        y = TriExpr.from_word_expr(y)
    datum = x.datum
    total = RatScalar.zero()
    for (_, lam, e1), c1 in x.terms.items():
        pe = word_to_plain(e1)
        content = RatScalar.one()
        for i in pe:
            content = content * generator_pairing(datum, i)
        for (f2, mu, _), c2 in y.terms.items():
            core = _pairing_core(datum, pe, word_to_plain(f2))
            if core.is_zero():
                continue
            total = total + (c1 * c2 * plain_factor(datum, e1)
                             * plain_factor(datum, f2) * content
                             * RatScalar.from_laurent(
                                 core.shift(-form(datum, lam, mu))))
    return total


def _core_sum_pairing(x, y):
    """The Hopf pairing by per-word-pair cores, the route the derivation
    walk replaced: for each x-term, the shifted cores against the y-terms
    of its letter content are summed over Q(q), and the generator factor
    multiplies once per letter content.  Faster than _oracle_pairing, so
    it also serves as the oracle on D4."""
    if isinstance(x, WordExpr):
        x = TriExpr.from_word_expr(x)
    if isinstance(y, WordExpr):
        y = TriExpr.from_word_expr(y)
    datum = x.datum
    ys = {}
    for (f2, mu, _), c2 in y.terms.items():
        pf = word_to_plain(f2)
        ys.setdefault(_wt_vec(datum, pf), []).append(
            (pf, mu, c2 * plain_factor(datum, f2)))
    total = RatScalar.zero()
    for (_, lam, e1), c1 in x.terms.items():
        pe = word_to_plain(e1)
        counts = _wt_vec(datum, pe)
        acc = RatScalar.zero()
        for pf, mu, c2 in ys.get(counts, ()):
            core = _pairing_core(datum, pe, pf)
            if not core.is_zero():
                acc = acc + c2 * RatScalar.from_laurent(
                    core.shift(-form(datum, lam, mu)))
        if not acc.is_zero():
            for i, c in enumerate(counts, start=1):
                acc = acc * generator_pairing(datum, i) ** c
            total = total + acc * c1 * plain_factor(datum, e1)
    return total


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_pairing_matches_oracle_on_pbw_monomials(label):
    datum = CartanDatum(label)
    for w in standard_words(datum):
        for mu in weights_up_to(datum, 3):
            data = data_of_weight(w, mu)
            for m in data:
                for n in data:
                    x = pbw_monomial(w, m)
                    y = f_pbw_monomial(w, n)
                    assert pairing(x, y) == _oracle_pairing(x, y), (m, n)


def test_pairing_matches_oracle_off_weight_and_with_k_parts():
    # a non-homogeneous x against a non-homogeneous y, with divided powers
    x = (E(B2, 1, 2) * E(B2, 2) + E(B2, 2) * E(B2, 1).scale(qp(3))
         + E(B2, 1) - E(B2, 2) * E(B2, 1, 2).scale(qp(-1, 2)))
    y = (F(B2, 2) * F(B2, 1, 2) + F(B2, 1) * F(B2, 2) * F(B2, 1)
         + F(B2, 1).scale(qp(1)) + F(B2, 2, 2))
    assert pairing(x, y) == _oracle_pairing(x, y)
    assert not pairing(x, y).is_zero()
    # two different denominators, neither 1, on each side of one weight
    c1, c2 = _COEFFS[4], _COEFFS[5]
    x = (E(B2, 1) * E(B2, 2)).scale(c1) + (E(B2, 2) * E(B2, 1)).scale(c2)
    y = (F(B2, 2) * F(B2, 1)).scale(c1) + (F(B2, 1) * F(B2, 2)).scale(c2)
    assert pairing(x, y) == _oracle_pairing(x, y)
    assert not pairing(x, y).is_zero()
    # (K_lam, K_mu) on every pair of simple roots and their negatives
    for datum in (A2, B2):
        ks = [datum.alpha(i, s) for i in datum.indices for s in (1, -1)]
        for lam in ks:
            for mu in ks:
                kx, ky = TriExpr.k_elt(datum, lam), TriExpr.k_elt(datum, mu)
                assert pairing(kx, ky) == _oracle_pairing(kx, ky)
    # K parts together with words, over several weights
    zk = (0, 0)
    tx = TriExpr(A2, {((), (1, 0), ((1, 1), (2, 1))): qp(2),
                      ((), (0, -1), ((2, 1), (1, 1))): qp(0, 3),
                      ((), zk, ((1, 2),)): qp(-1),
                      ((), (1, 1), ((1, 1),)): qp(0)})
    ty = TriExpr(A2, {(((2, 1), (1, 1)), (0, 1), ()): qp(1),
                      (((1, 1), (2, 1)), (-1, 0), ()): qp(0, -2),
                      (((1, 2),), (1, 1), ()): qp(0),
                      (((1, 1),), zk, ()): qp(4)})
    assert pairing(tx, ty) == _oracle_pairing(tx, ty)
    assert not pairing(tx, ty).is_zero()


_COEFFS = [RatScalar.one(), qp(-1, 2), qp(3), qp(-2, -1),
           RatScalar(ONE, LaurentPoly({0: 1, 2: 1})),             # 1/(1+q^2)
           RatScalar(LaurentPoly({1: 1, -1: -1}),
                     LaurentPoly({0: 1, 1: 1, 2: 1})),             # pole off q
           RatScalar(LaurentPoly.q_power(-1), LaurentPoly({0: 2, 4: -1}))]


@st.composite
def _tri_sides(draw, datum, side):
    """A TriExpr of K_lam E-word terms (side E) or F-word K_mu terms
    (side F): up to five terms over several weights, with divided powers,
    repeated letters, K parts and non-Laurent coefficients."""
    letters = st.tuples(st.sampled_from(datum.indices), st.integers(1, 2))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        word, _ = canonicalize_word(
            datum, draw(st.lists(letters, max_size=3)))
        k = tuple(draw(st.lists(st.integers(-1, 1), min_size=datum.rank,
                                max_size=datum.rank)))
        key = ((), k, word) if side == "E" else (word, k, ())
        terms[key] = draw(st.sampled_from(_COEFFS))
    return TriExpr(datum, terms)


@st.composite
def _one_weight_letters(draw, datum):
    """Two distinct letters and at most one more: a weight with at least
    two plain words."""
    letters = draw(st.lists(st.sampled_from(datum.indices), min_size=2,
                            max_size=2, unique=True))
    return letters + draw(st.lists(st.sampled_from(datum.indices),
                                   max_size=1))


@st.composite
def _same_weight_sides(draw, datum, side, letters):
    """A TriExpr of two to four words that order the letters, with one K
    part, so all its terms fall into one (K part, weight) sum; the first
    three carry the coefficients of _COEFFS with the three distinct
    denominators other than 1, in a drawn order, so that sum takes the
    lcm of at least two of them."""
    words = sorted({canonicalize_word(datum, [(i, 1) for i in p])[0]
                    for p in itertools.permutations(letters)})
    chosen = draw(st.lists(st.sampled_from(words), min_size=2, max_size=4,
                           unique=True))
    coeffs = draw(st.permutations(_COEFFS[4:]))
    k = tuple(draw(st.lists(st.integers(-1, 1), min_size=datum.rank,
                            max_size=datum.rank)))
    terms = {}
    for t, word in enumerate(chosen):
        key = ((), k, word) if side == "E" else (word, k, ())
        terms[key] = (coeffs[t] if t < len(coeffs)
                      else draw(st.sampled_from(_COEFFS)))
    return TriExpr(datum, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pairing_matches_oracle_on_random_tri_exprs(data):
    datum = data.draw(st.sampled_from([A2, B2, A3]))
    if data.draw(st.booleans()):
        x = data.draw(_tri_sides(datum, "E"))
        y = data.draw(_tri_sides(datum, "F"))
    else:
        # distinct denominators in one sum on each side, of one weight
        letters = data.draw(_one_weight_letters(datum))
        x = data.draw(_same_weight_sides(datum, "E", letters))
        y = data.draw(_same_weight_sides(datum, "F", letters))
    assert pairing(x, y) == _oracle_pairing(x, y) == _core_sum_pairing(x, y)
    # a Serre element pairs to zero with everything, and leaves the
    # pairing unchanged when added
    s = TriExpr.from_word_expr(serre_element(datum, 1, 2)).scale(
        data.draw(st.sampled_from(_COEFFS)))
    assert pairing(s, y).is_zero() and _oracle_pairing(s, y).is_zero()
    assert pairing(x + s, y) == pairing(x, y)


def _oracle_canonical_form(x):
    """The pairing vector word by word: for every plain word w of the
    weight, the sum of c core(u, w) over the plain expansion u of x, times
    the generator factor."""
    datum = x.datum
    if x.is_zero():
        return CanonicalForm(datum, (0,) * datum.rank, {})
    mu = x.weight()
    plain = {}
    for w, c in x.terms.items():
        add_term(plain, word_to_plain(w), c * plain_factor(datum, w))
    content = RatScalar.one()
    for i, c in enumerate(mu, start=1):
        content = content * generator_pairing(datum, i) ** c
    entries = {}
    for w in plain_words_of_weight(datum, mu):
        val = RatScalar.zero()
        for u, c in plain.items():
            core = _pairing_core(datum, u, w)
            if not core.is_zero():
                val = val + c * RatScalar.from_laurent(core)
        if not val.is_zero():
            entries[w] = val * content
    return CanonicalForm(datum, mu, entries)


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_canonical_form_matches_plain_word_route(label):
    datum = CartanDatum(label)
    serre = [serre_element(datum, i, j) for i in datum.indices
             for j in datum.indices
             if i != j and datum.cartan[i - 1][j - 1]]
    elements = [WordExpr.zero(datum), WordExpr.one(datum).scale(_COEFFS[4])]
    elements += serre
    for w in standard_words(datum):
        for mu in weights_up_to(datum, 3):
            for m in data_of_weight(w, mu):
                elements.append(pbw_monomial(w, m))
    # non-Laurent coefficients, and Serre elements added to nonzero ones
    elements += [x.scale(c) + s.scale(c)
                 for x, c, s in zip(elements[len(serre) + 2:], _COEFFS * 99,
                                    serre * 99)
                 if x.weight() == s.weight()]
    for x in elements:
        got, want = canonical_form(x), _oracle_canonical_form(x)
        assert got == want, x
        assert list(got.entries) == list(want.entries), x
    assert all(canonical_form(s).is_zero() for s in serre)


# -- the unfolded product loop, kept as the oracle ---------------------------

def _oracle_tri_mul(x, y):
    """The product in normal order with every scalar factor a reduced
    RatScalar product: c1 c2, both plain-word factors, c, the q-power
    shift and the merge binomials, per normal-order term."""
    datum = x.datum
    out = {}
    for (f1, k1, e1), c1 in x.terms.items():
        pe1 = word_to_plain(e1)
        r1 = plain_factor(datum, e1)
        for (f2, k2, e2), c2 in y.terms.items():
            pf2 = word_to_plain(f2)
            r2 = plain_factor(datum, f2)
            base = c1 * c2 * r1 * r2
            for fp, kp, ep, c in _normal_order(datum, pe1, pf2):
                shift = (-form(datum, k1, _wt_vec(datum, fp))
                         - form(datum, k2, _wt_vec(datum, ep)))
                coeff = base * c * RatScalar.q_power(shift)
                fw, ff = canonicalize_word(datum, f1 + plain_to_pairs(fp))
                ew, ef = canonicalize_word(datum, plain_to_pairs(ep) + e2)
                coeff = coeff * ff * ef
                nk = (fw, _vec_add(_vec_add(k1, kp), k2), ew)
                s = out.get(nk, RatScalar.zero()) + coeff
                if s.is_zero():
                    out.pop(nk, None)
                else:
                    out[nk] = s
    return TriExpr(datum, out)


def _braid_images(datum, m):
    """T_i of E_j^(m), F_j^(m) and, for m = 1, K_{alpha_j}: K parts,
    divided powers and non-Laurent coefficients on both sides."""
    out = []
    for i in datum.indices:
        for j in datum.indices:
            out.append(_braid_gen(datum, i, "E", j, m))
            out.append(_braid_gen(datum, i, "F", j, m))
            if m == 1:
                out.append(_braid_gen(datum, i, "K", datum.alpha(j), 1))
    return out


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_tri_mul_matches_oracle_on_braid_images(label):
    # every pair with a T_i(generator) factor; pairs of two squared
    # images are left out (their normal ordering takes seconds on B2)
    datum = CartanDatum(label)
    ones = _braid_images(datum, 1)
    for x in ones + _braid_images(datum, 2):
        for y in ones:
            assert tri_mul(x, y) == _oracle_tri_mul(x, y), (x, y)
            assert tri_mul(y, x) == _oracle_tri_mul(y, x), (y, x)


def test_tri_mul_matches_oracle_on_merges_and_shifts():
    # K parts on both sides, E_1^(2) F_1^(2) through the normal order,
    # merges into F_1^(3) and E_1^(3), and a coefficient with a pole
    pole = RatScalar(LaurentPoly.q_power(1), LaurentPoly({0: 1, 2: 1}))
    x = TriExpr(B2, {(((1, 1),), (1, 0), ((1, 2),)): pole,
                     ((), (0, -1), ((2, 1), (1, 1))): qp(-1, 3)})
    y = TriExpr(B2, {(((1, 2),), (1, 1), ((1, 1),)): qp(2),
                     (((2, 1),), (0, 0), ()): pole})
    prod = tri_mul(x, y)
    assert prod == _oracle_tri_mul(x, y)
    assert any(f == ((1, 3),) for f, _, _ in prod.terms)
    assert tri_mul(y, x) == _oracle_tri_mul(y, x)
    # merge binomials that share factors with the denominator: E_1^(3) E_1
    # and F_1^(3) F_1 give [4] = q^-3 (1 + q^2)(1 + q^4), so the product
    # must be reduced after the binomials join
    half = RatScalar(LaurentPoly.q_power(0), LaurentPoly({0: 1, 2: 1}))
    x = TriExpr(A2, {(((1, 3),), (0, 0), ((1, 3),)): half})
    for y in (TriExpr.e_gen(A2, 1), TriExpr.f_gen(A2, 1)):
        assert tri_mul(x, y) == _oracle_tri_mul(x, y)
        assert tri_mul(y, x) == _oracle_tri_mul(y, x)
