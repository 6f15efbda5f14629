"""The dual PBW basis, the twisted bar involution, the dual canonical
basis, lattice congruences, and quantum flag minors."""

import pytest
from hypothesis import given, settings, strategies as st

import qminor.canonical
import qminor.pbw

from qminor.scalars import LaurentPoly, RatScalar
from qminor.rootdata import (CartanDatum, ReducedWord, longest_word, form,
                             weights_up_to, all_reduced_words_for_w0)
from qminor.qea import WordExpr, expr_equal, sigma_eta
from qminor.pbw import (pbw_monomial, dual_pbw_normalizer, data_of_weight,
                        rlex_less, weight_tuple, straighten_commutator,
                        unit_datum, NonLaurentStraightening)
from qminor.canonical import (dual_pbw_element, dual_pbw_expansion,
                              from_dual_pbw, sigma_eta_dual_coords,
                              eigen_scalar, bar_matrix, dual_canonical_basis,
                              dual_canonical_element,
                              expand_dual_canonical_coords,
                              coords_congruent_mod_qL,
                              flag_minor_datum, flag_minor, demazure_flag,
                              basis_element_json, dual_product,
                              dual_to_pbw_coords, pbw_to_dual_coords,
                              _sigma_eta_unit,
                              NotUnitriangular, FlagMinorWeightMismatch)
from qminor.checks import standard_words

from sigma_eta_oracle import pbw_route_sigma_eta_dual_coords
from dual_letters_oracle import oracle_unit_product, oracle_sigma_eta_column
from pbw_letters_oracle import (pbw_letters_product,
                                pbw_straighten_commutator)
from weight_oracle import frac_minor_weight
from datum_oracle import letter_exponent
from qminor.quiver import adapted_word, all_orientations

A2 = CartanDatum("A2")
A3 = CartanDatum("A3")
B2 = CartanDatum("B2")
W_A2 = longest_word(A2)


def qp(k, c=1):
    return RatScalar.q_power(k, c)


def E(datum, i, k=1):
    return WordExpr.generator(datum, i, k)


# -- dual PBW ------------------------------------------------------------------

def test_dual_pbw_element():
    # E(m)* = f_m E(m); for m = e_1 that is (1 - q^2) E_1.
    x = dual_pbw_element(W_A2, (1, 0, 0))
    assert x == E(A2, 1).scale(RatScalar.one() - qp(2))


def test_dual_pbw_expansion_roundtrip():
    coords = {(1, 0, 1): qp(2), (0, 1, 0): qp(0, 3)}
    x = from_dual_pbw(W_A2, coords)
    back = dual_pbw_expansion(x, W_A2)
    assert back == coords


def test_dual_product_matches_elements():
    # dual_product in coordinates = multiply the elements, re-expand.
    ca = {(1, 0, 0): RatScalar.one()}
    cb = {(0, 1, 0): RatScalar.one()}
    prod = dual_product(W_A2, ca, cb)
    elt = from_dual_pbw(W_A2, ca) * from_dual_pbw(W_A2, cb)
    assert prod == dual_pbw_expansion(elt, W_A2)


# -- products through the table of E*_l E(m)* ----------------------------------

def _oracle_dual_product(w, ca, cb):
    """The product without the table: convert both factors to PBW
    coordinates, straighten their letters over Q(q), and convert back."""
    prod = pbw_letters_product(w, dual_to_pbw_coords(w, ca),
                               dual_to_pbw_coords(w, cb))
    return pbw_to_dual_coords(w, prod)


def _standard_and_adapted_words(datum):
    words = standard_words(datum)
    if datum.is_simply_laced():
        words += [adapted_word(o) for o in all_orientations(datum)]
    return list({w.word: w for w in words}.values())


PRODUCT_HEIGHTS = {"A2": 4, "B2": 4, "A3": 3, "A4": 2, "D4": 2}


def _data_pairs(w, height):
    """Every pair of data (zero included) of total weight height <= height."""
    data = [(0, (0,) * len(w.word))]
    data += [(sum(mu), m) for mu in weights_up_to(w.datum, height)
             for m in data_of_weight(w, mu)]
    return [(m, n) for hm, m in data for hn, n in data if hm + hn <= height]


def _canonical_coords(w, m):
    return dual_canonical_basis(weight_tuple(w, m), w)[m]


@pytest.mark.parametrize("label", sorted(PRODUCT_HEIGHTS))
def test_dual_product_matches_oracle(label):
    # On E(m)* x E(n)* (unit coordinates) and on B(m)* x B(n)*, whose
    # coordinates are not all 1, for every standard and adapted word.
    one = RatScalar.one()
    for w in _standard_and_adapted_words(CartanDatum(label)):
        for m, n in _data_pairs(w, PRODUCT_HEIGHTS[label]):
            ca, cb = {m: one}, {n: one}
            assert dual_product(w, ca, cb) == \
                _oracle_dual_product(w, ca, cb), (w, m, n)
            if any(m) and any(n):
                ca, cb = _canonical_coords(w, m), _canonical_coords(w, n)
                assert dual_product(w, ca, cb) == \
                    _oracle_dual_product(w, ca, cb), (w, m, n)


@pytest.mark.parametrize("label", sorted(PRODUCT_HEIGHTS))
def test_dual_unit_products_are_laurent(label):
    # Every product E(m)* E(n)* has Laurent coordinates, as the dual PBW
    # basis spans a Z[q, q^-1]-form.  The letter table works over
    # Z[q, q^-1], so it is Laurent by construction; the products are
    # taken by the Q(q) route instead, where a coordinate can leave it.
    one = RatScalar.one()
    for w in _standard_and_adapted_words(CartanDatum(label)):
        for m, n in _data_pairs(w, PRODUCT_HEIGHTS[label]):
            for c in _oracle_dual_product(w, {m: one}, {n: one}).values():
                assert c.is_laurent(), (w, m, n, c.render())


def _letter_product(w, m):
    """q^e(m) E*_1^m_1 ... E*_N^m_N as an element, with E*_k = E(e_k)* and
    e(m) = sum_k (beta_k, beta_k)/2 * m_k (m_k - 1)/2."""
    N = len(w.word)
    x = WordExpr.one(w.datum)
    e = 0
    for k, c in enumerate(m, start=1):
        if c:
            x = x * dual_pbw_element(w, unit_datum(N, k)) ** c
            b = w.betas[k - 1]
            e += form(w.datum, b, b) // 2 * c * (c - 1) // 2
    return x.scale(qp(e))


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_dual_pbw_element_is_q_power_times_letters(label):
    # The base case of the dual-letter straightening, as elements: every
    # datum up to height 3, on every reduced word of A2 and B2 (B2 has
    # d_k = 1 and 2) and the standard words of A3.
    datum = CartanDatum(label)
    words = (standard_words(datum) if label == "A3"
             else all_reduced_words_for_w0(datum))
    for w in words:
        for mu in weights_up_to(datum, 3):
            for m in data_of_weight(w, mu):
                assert expr_equal(dual_pbw_element(w, m),
                                  _letter_product(w, m)), (w.word, m)


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "A4", "D4"])
def test_dual_commutator_is_laurent(label):
    # S*[m] = f_{e_k + e_k'} S[m] / f_m is in Z[q, q^-1] for every pair of
    # every reduced word of A2, B2 and A3, of the standard and adapted
    # words of A4, and of the standard words of D4 (straighten_commutator
    # raises otherwise).  S is the PBW-side straightening that
    # tests/pbw_letters_oracle.py pairs out over Q(q).  CI straightens
    # the adapted words of D4 in a step of its own.
    datum = CartanDatum(label)
    if datum.rank <= 3:
        words = all_reduced_words_for_w0(datum)
    elif label == "D4":
        words = standard_words(datum)
    else:
        words = _standard_and_adapted_words(datum)
    for w in words:
        N = len(w.word)
        for k in range(1, N + 1):
            for kp in range(k + 1, N + 1):
                lead = tuple(a + b for a, b in
                             zip(unit_datum(N, k), unit_datum(N, kp)))
                f = dual_pbw_normalizer(w, lead)
                expected = {m: f * c / dual_pbw_normalizer(w, m)
                            for m, c in pbw_straighten_commutator(
                                w, k, kp).items()}
                got = straighten_commutator(w, k, kp)
                assert all(isinstance(c, LaurentPoly) for c in got.values())
                assert {m: RatScalar.from_laurent(c)
                        for m, c in got.items()} == expected, (w.word, k, kp)


def test_non_laurent_dual_commutator_raises(non_laurent_commutator):
    # the fixture swaps in fresh caches: call them through the module
    with pytest.raises(NonLaurentStraightening,
                       match=r"S\* of E\*_3 E\*_1 on .* at \[0,1,0\]"):
        qminor.pbw.straighten_commutator(W_A2, 1, 3)
    with pytest.raises(NonLaurentStraightening):
        dual_product(W_A2, {(0, 0, 1): RatScalar.one()},
                     {(1, 0, 0): RatScalar.one()})


def test_dual_product_cancels_and_handles_empty_factors():
    # E(0)* E(110)* = E(100)* E(010)* = E(110)*: the two cancel in
    # (E(0)* + E(100)*) (E(110)* - E(010)*).
    one = RatScalar.one()
    ca = {(0, 0, 0): one, (1, 0, 0): one}
    cb = {(1, 1, 0): one, (0, 1, 0): -one}
    prod = dual_product(W_A2, ca, cb)
    assert (1, 1, 0) not in prod
    assert prod[(0, 1, 0)] == -one
    assert prod == _oracle_dual_product(W_A2, ca, cb)
    assert dual_product(W_A2, {}, cb) == {}
    assert dual_product(W_A2, ca, {}) == {}
    assert dual_product(W_A2, {(1, 0, 0): RatScalar.zero()}, cb) == {}


_ONE = RatScalar.one()
_COEFFS = [RatScalar.zero(), _ONE, qp(0, -1), qp(1), qp(-1, 2),
           _ONE / (_ONE - qp(2)), (_ONE + qp(1)) / (_ONE - qp(3))]
_HYP_WORDS = [w for label in ("A2", "B2", "A3")
              for w in standard_words(CartanDatum(label))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dual_product_matches_oracle_on_random_coords(data):
    # non-Laurent coefficients, zero coefficients, partial cancellation
    # and empty dicts
    w = data.draw(st.sampled_from(_HYP_WORDS))
    pool = [(0,) * len(w.word)] + [m for mu in weights_up_to(w.datum, 2)
                                   for m in data_of_weight(w, mu)]
    coords = st.dictionaries(st.sampled_from(pool), st.sampled_from(_COEFFS),
                             max_size=3)
    ca, cb = data.draw(coords), data.draw(coords)
    assert dual_product(w, ca, cb) == _oracle_dual_product(w, ca, cb)


# -- the twisted bar involution ------------------------------------------------

def test_eigen_scalar_values():
    # s_mu = (-1)^tr q^{-(<mu,mu>/2 + sum k_i d_i)} in this convention.
    assert eigen_scalar(A2, (1, 0)) == qp(-2, -1)
    assert eigen_scalar(A2, (1, 1)) == qp(-3)
    assert eigen_scalar(B2, (0, 1)) == qp(-4, -1)


@pytest.mark.parametrize("label", ["B2", "A3"])
def test_sigma_eta_unit_matches_eigen_scalars(label):
    # the int exponent and sign against the RatScalar product
    # q^-e(n) prod_k s_{beta_k}^{n_k}, on every reduced word
    datum = CartanDatum(label)
    for w in all_reduced_words_for_w0(datum):
        for mu in weights_up_to(datum, 3):
            for n in data_of_weight(w, mu):
                unit = qp(-letter_exponent(w, n))
                for beta, c in zip(w.betas, n):
                    unit = unit * eigen_scalar(datum, beta) ** c
                assert _sigma_eta_unit(w, n) == unit, (w.word, n)


def test_dual_pbw_is_twisted_bar_eigenvector_on_roots():
    # sigma_eta(E(e_k)*) = s_beta E(e_k)* for every root of A2 and B2.
    for datum in (A2, B2):
        w = longest_word(datum)
        for k in range(1, len(w) + 1):
            m = tuple(1 if t == k else 0 for t in range(1, len(w) + 1))
            x = dual_pbw_element(w, m)
            s = eigen_scalar(datum, w.betas[k - 1])
            assert expr_equal(sigma_eta(x), x.scale(s))


def test_bar_matrix_weight_alpha1():
    data, R = bar_matrix((1, 0), W_A2)
    assert data == ((1, 0, 0),)
    assert R[(1, 0, 0)][(1, 0, 0)].is_one()


def test_bar_matrix_weight_alpha1_alpha2():
    # 2x2 unitriangular over rlex with unit diagonal; the off-diagonal
    # entry is q - q^{-1} (bar-antisymmetric, as the involution forces).
    data, R = bar_matrix((1, 1), W_A2)
    assert data == ((0, 1, 0), (1, 0, 1))
    assert R[(0, 1, 0)][(0, 1, 0)].is_one()
    assert R[(1, 0, 1)][(1, 0, 1)].is_one()
    assert (1, 0, 1) not in R or (0, 1, 0) not in R[(1, 0, 1)]
    off = R[(0, 1, 0)][(1, 0, 1)]
    assert off + off.bar() == RatScalar.zero()


def test_bar_matrix_weight_zero():
    data, R = bar_matrix((0, 0), W_A2)
    assert data == ((0, 0, 0),)


def test_bar_matrix_is_involutive():
    # Applying the twisted involution twice in coordinates is the identity.
    for mu in ((1, 1), (2, 1), (1, 2)):
        s_inv = RatScalar.one() / eigen_scalar(A2, mu)
        for n in data_of_weight(W_A2, mu):
            col = sigma_eta_dual_coords(W_A2, {n: RatScalar.one()})
            col = {m: c * s_inv for m, c in col.items()}
            back = sigma_eta_dual_coords(W_A2, col)
            back = {m: c * s_inv for m, c in back.items()
                    if not (c * s_inv).is_zero()}
            assert back == {n: RatScalar.one()}


SIGMA_ETA_HEIGHTS = {"A2": 4, "B2": 3, "A3": 3, "A4": 3, "D4": 3}


def _every_or_adapted_word(datum):
    if datum.label in ("A4", "D4"):
        return list({w.word: w for w in map(adapted_word,
                                            all_orientations(datum))}.values())
    return all_reduced_words_for_w0(datum)


@pytest.mark.parametrize("label", sorted(SIGMA_ETA_HEIGHTS))
def test_sigma_eta_matches_pbw_route(label):
    # The closed form on every column E(n)* of a weight space, then on
    # its B(n)*, whose coordinates are not all 1, against the PBW-product
    # route.
    datum = CartanDatum(label)
    for w in _every_or_adapted_word(datum):
        for mu in weights_up_to(datum, SIGMA_ETA_HEIGHTS[label]):
            data = data_of_weight(w, mu)
            for n in data:
                col = {n: RatScalar.one()}
                assert sigma_eta_dual_coords(w, col) == \
                    pbw_route_sigma_eta_dual_coords(w, col), (w, n)
            for n in data:
                coords = _canonical_coords(w, n)
                assert sigma_eta_dual_coords(w, coords) == \
                    pbw_route_sigma_eta_dual_coords(w, coords), (w, n)


LETTER_TABLE_HEIGHTS = {"A2": 3, "B2": 3, "A3": 3, "A4": 2, "D4": 2}


@pytest.mark.parametrize("label", sorted(LETTER_TABLE_HEIGHTS))
def test_letter_table_matches_letter_straightening(label):
    # Products E(m)* E(n)* of total height <= H and the sigma_eta columns
    # of height <= H, pushed through the letter-times-datum table, against
    # the letter-sequence straightening of tests/dual_letters_oracle.py, on
    # every reduced word of A2, B2 and A3 and the adapted words of A4 and D4
    one = LaurentPoly.from_int(1)
    height = LETTER_TABLE_HEIGHTS[label]
    for w in _every_or_adapted_word(CartanDatum(label)):
        for m, n in _data_pairs(w, height):
            assert dual_product(w, {m: one}, {n: one}) == \
                oracle_unit_product(w, m, n), (w.word, m, n)
            if not any(m):
                assert sigma_eta_dual_coords(w, {n: one}) == \
                    oracle_sigma_eta_column(w, n), (w.word, n)


# -- the dual canonical basis --------------------------------------------------

def test_dual_canonical_basis_a2():
    basis = dual_canonical_basis((1, 1), W_A2)
    assert basis[(0, 1, 0)] == {(0, 1, 0): RatScalar.one()}
    assert basis[(1, 0, 1)] == {(1, 0, 1): RatScalar.one(),
                                (0, 1, 0): qp(1)}


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_canonical_coordinates_are_laurent_polys(label):
    # B*, the bar matrix, sigma_eta of B* and products of B* elements are
    # LaurentPoly values, with no RatScalar round trip
    for w in standard_words(CartanDatum(label)):
        for mu in weights_up_to(w.datum, 3):
            values = [c for row in bar_matrix(mu, w)[1].values()
                      for c in row.values()]
            for coords in dual_canonical_basis(mu, w).values():
                values += coords.values()
                values += sigma_eta_dual_coords(w, coords).values()
                values += dual_product(w, coords, coords).values()
            assert all(type(c) is LaurentPoly for c in values), (w.word, mu)


def test_dual_canonical_unitriangular_qzq():
    for datum, w, mus in ((A2, W_A2, ((2, 1), (2, 2))),
                          (B2, longest_word(B2), ((1, 1), (1, 2), (2, 1)))):
        for mu in mus:
            basis = dual_canonical_basis(mu, w)
            for n, coords in basis.items():
                assert coords[n].is_one()
                for m, c in coords.items():
                    if m != n:
                        assert rlex_less(m, n)
                        assert c.is_in_qZq()


def test_dual_canonical_bar_fixed():
    # Each B(n)* is fixed by the twisted bar involution.
    for mu in ((1, 1), (2, 1)):
        s_inv = RatScalar.one() / eigen_scalar(A2, mu)
        for n, coords in dual_canonical_basis(mu, W_A2).items():
            img = sigma_eta_dual_coords(W_A2, coords)
            img = {m: c * s_inv for m, c in img.items()}
            assert img == coords


def test_inversion_residue_raises(monkeypatch):
    # a basis element with support outside its weight space is left over
    one = RatScalar.one()
    monkeypatch.setattr(qminor.canonical, "dual_canonical_basis",
                        lambda mu, w: {n: {n: one, (9, 9, 9): one}
                                       for n in data_of_weight(w, mu)})
    with pytest.raises(NotUnitriangular, match="residue"):
        expand_dual_canonical_coords({(1, 0, 1): one}, W_A2)


def test_expand_dual_canonical():
    # B(m)* expands as the delta; E(n)* expands unitriangularly with the
    # correction in qZ[q]; zero expands to nothing.
    def expand(x):
        return expand_dual_canonical_coords(dual_pbw_expansion(x, W_A2),
                                            W_A2)

    x = dual_canonical_element(W_A2, (1, 0, 1))
    assert expand(x) == {(1, 0, 1): RatScalar.one()}
    exp = expand(dual_pbw_element(W_A2, (1, 0, 1)))
    assert exp[(1, 0, 1)].is_one()
    assert exp[(0, 1, 0)] == qp(1, -1)
    assert exp[(0, 1, 0)].is_in_qZq()
    assert expand(WordExpr.zero(A2)) == {}


# -- the lattice ---------------------------------------------------------------

def test_q_lattice_membership():
    # x is in qL* iff it is congruent to 0 mod qL*
    x = dual_pbw_element(W_A2, (0, 1, 0))
    assert not coords_congruent_mod_qL(dual_pbw_expansion(x, W_A2), {})
    assert coords_congruent_mod_qL(
        dual_pbw_expansion(x.scale(qp(1)), W_A2), {})


def test_canonical_congruent_dual_pbw():
    # B(m)* = E(m)* mod qL* for every m of the tested weights.
    for mu in ((1, 1), (2, 1)):
        for m in data_of_weight(W_A2, mu):
            b = dual_canonical_element(W_A2, m)
            e = dual_pbw_element(W_A2, m)
            assert coords_congruent_mod_qL(dual_pbw_expansion(b, W_A2),
                                           dual_pbw_expansion(e, W_A2))


# -- flag minors and Demazure flags --------------------------------------------

def test_flag_minor_data_a2():
    assert flag_minor_datum(W_A2, 1) == (1, 0, 0)
    assert flag_minor_datum(W_A2, 2) == (0, 1, 0)
    assert flag_minor_datum(W_A2, 3) == (1, 0, 1)


def test_flag_minor_elements_and_weights():
    # k=1: the element (1 - q^2)E_1 of weight (Id - s_1)varpi_1 = a1.
    n, elt = flag_minor(W_A2, 1)
    assert n == (1, 0, 0)
    assert elt == E(A2, 1).scale(RatScalar.one() - qp(2))
    # every prefix: weight(minor) = (Id - s_{i_1}..s_{i_k}) varpi_{i_k}.
    for datum in (A2, A3, B2):
        w = longest_word(datum)
        for k in range(1, len(w) + 1):
            target = frac_minor_weight(datum, w.word[:k])
            nk, minor = flag_minor(w, k)
            assert weight_tuple(w, nk) == target
            assert minor.weight() == target


def test_flag_minor_weight_mismatch_raises(monkeypatch):
    monkeypatch.setattr(qminor.canonical, "flag_minor_datum",
                        lambda w, k: (0, 1, 0))
    with pytest.raises(FlagMinorWeightMismatch):
        flag_minor(W_A2, 1)


def test_flag_minor_is_canonical():
    # Flag minors are dual canonical basis elements.
    for k in range(1, 4):
        n, elt = flag_minor(W_A2, k)
        assert expr_equal(elt, dual_canonical_element(W_A2, n))


def test_demazure_flag():
    assert demazure_flag((1, 0, 1), 3)
    assert not demazure_flag((1, 0, 1), 2)
    assert demazure_flag((0, 0, 0), 1)


def test_basis_element_json_shape():
    obj = basis_element_json(W_A2, (1, 0, 1))
    assert obj["datum"] == [1, 0, 1]
    assert obj["word"] == [1, 2, 1]
    assert obj["weight"] == [1, 1]
    assert obj["dual_pbw"]["[1,0,1]"] == "1"
    assert obj["dual_pbw"]["[0,1,0]"] == "q"


# -- memoization ---------------------------------------------------------------

def test_memo_normalizes_inputs_before_the_cache():
    # Equal inputs of different types share one cached object, equal words
    # share results, and bad input raises on every call (nothing cached).
    first = dual_canonical_basis([1, 1], W_A2)
    assert dual_canonical_basis((1, 1), W_A2) is first
    # bar_matrix is not cached; equal weights of any type give equal results
    first = bar_matrix([1, 1], W_A2)
    assert bar_matrix((1, 1), W_A2) == first
    for fn in (pbw_monomial, dual_pbw_normalizer):
        assert fn(W_A2, [1, 0, 1]) is fn(W_A2, (1, 0, 1))
    w1, w2 = ReducedWord(A2, (1, 2, 1)), ReducedWord(A2, (1, 2, 1))
    assert w1 is not w2
    assert straighten_commutator(w1, 1, 3) is straighten_commutator(w2, 1, 3)
    for _ in range(2):
        with pytest.raises(ValueError):
            straighten_commutator(w1, 2, 1)
        with pytest.raises(ValueError):
            pbw_monomial(w1, (1, -1, 0))
