"""q-commutation, multiplicativity on the dual canonical basis, and the
product-verification harness."""

import itertools

import pytest

import qminor.mult
from qminor.scalars import LaurentPoly, RatScalar
from qminor.rootdata import CartanDatum, ReducedWord, longest_word
from qminor.pbw import d_form, weight_tuple
from qminor.canonical import (flag_minor_datum, dual_canonical_element,
                              dual_pbw_expansion)
from qminor.mult import (q_commute_exponent_coords, is_multiplicative,
                         check_511, adapted_monomials, all_data_up_to,
                         verify_theorem_51, _dual_can_coords)
from qminor.quiver import parse_orientation, all_orientations

A2 = CartanDatum("A2")
W_A2 = longest_word(A2)


def coords(m):
    return _dual_can_coords(W_A2, m)


def test_q_commute_self_is_zero():
    assert q_commute_exponent_coords(W_A2, coords((1, 0, 0)),
                                     coords((1, 0, 0))) == 0


def test_q_commute_flag_minor_example():
    # The full flag minor against E_1*: exponent <(Id + w_0)varpi_1, a1>
    # = <varpi_1 - varpi_2, a1> = 1.
    n3 = flag_minor_datum(W_A2, 3)
    assert q_commute_exponent_coords(W_A2, coords(n3), coords((1, 0, 0))) == 1


def test_q_commute_absent():
    # E_1* and E_2* do not q-commute: their commutator involves E(e_2).
    assert q_commute_exponent_coords(W_A2, coords((1, 0, 0)),
                                     coords((0, 0, 1))) is None


def q_commute_exponent(b, bp, w):
    """The exponent for two elements, through their dual-PBW coordinates."""
    return q_commute_exponent_coords(w, dual_pbw_expansion(b, w),
                                     dual_pbw_expansion(bp, w))


def test_q_commute_element_interface():
    b = dual_canonical_element(W_A2, flag_minor_datum(W_A2, 3))
    bp = dual_canonical_element(W_A2, (1, 0, 0))
    assert q_commute_exponent(b, bp, W_A2) == 1


_S = RatScalar.one() / (RatScalar.one() - RatScalar.q_power(2))


def test_q_commute_exponent_on_non_laurent_coordinates():
    # scaled by 1/(1 - q^2), no dual-PBW coordinate is Laurent, and the
    # exponent is read off the valuations as before
    b = dual_canonical_element(W_A2, flag_minor_datum(W_A2, 3))
    bp = dual_canonical_element(W_A2, (1, 0, 0))
    bs, bps = b.scale(_S), bp.scale(_S)
    assert not any(c.is_laurent()
                   for c in dual_pbw_expansion(bs, W_A2).values())
    assert q_commute_exponent(bs, bp, W_A2) == 1
    assert q_commute_exponent(bp, bs, W_A2) == -1
    assert q_commute_exponent(bs, bps, W_A2) == 1
    e2 = dual_canonical_element(W_A2, (0, 0, 1))
    assert q_commute_exponent(bps, e2.scale(_S), W_A2) is None


def _lq(k, c=1):
    return LaurentPoly.q_power(k, c)


_M, _N = (0, 1, 0), (1, 0, 1)


@pytest.mark.parametrize("xy, yx, expected", [
    # -q^3: the valuations say 3, the shift check says no
    ({_M: _lq(3, -1)}, {_M: _lq(0)}, None),
    ({_M: _S * _lq(3, -1)}, {_M: _S}, None),
    # 1 + q against 1: equal valuations, not a q-power
    ({_M: _lq(0) + _lq(1)}, {_M: _lq(0)}, None),
    # q^2 at the first coordinate, q at the second
    ({_M: _lq(2), _N: _lq(2)}, {_M: _lq(0), _N: _lq(1)}, None),
    ({_M: _S * _lq(2), _N: _lq(3)}, {_M: _S, _N: _lq(1)}, 2),
    ({_M: _lq(-1)}, {}, None),
    ({}, {}, 0),
])
def test_q_commute_exponent_checks_the_shift_everywhere(monkeypatch, xy, yx,
                                                        expected):
    products = iter([xy, yx])
    monkeypatch.setattr(qminor.mult, "dual_product",
                        lambda w, ca, cb: next(products))
    assert q_commute_exponent_coords(W_A2, {}, {}) == expected


def test_multiplicative_unit():
    # Multiplying by B(0)* = 1 is trivially multiplicative.
    assert is_multiplicative(W_A2, (0, 0, 0), (1, 0, 0)) == (0, (1, 0, 0))


def test_multiplicative_flag_minors():
    # Two flag minors of one adapted word are multiplicative, with datum
    # the sum and exponent the d-form.
    m, mp = flag_minor_datum(W_A2, 1), flag_minor_datum(W_A2, 3)
    res = is_multiplicative(W_A2, m, mp)
    assert res == (d_form(W_A2, m, mp),
                   tuple(a + b for a, b in zip(m, mp)))
    assert check_511(W_A2, m, mp)


def test_multiplicative_powers_of_root():
    # E_1* against E_1* (a dual root vector power).
    assert is_multiplicative(W_A2, (1, 0, 0), (1, 0, 0)) == (1, (2, 0, 0))
    assert check_511(W_A2, (1, 0, 0), (1, 0, 0))


def test_adapted_monomials():
    # H=0 keeps only the zero datum; H=1 adds the height-1 flag minor e_1.
    assert adapted_monomials(W_A2, 0) == [(0, 0, 0)]
    h1 = adapted_monomials(W_A2, 1)
    assert (1, 0, 0) in h1 and (0, 0, 0) in h1
    # all entries are sums of flag-minor data
    gens = [flag_minor_datum(W_A2, k) for k in (1, 2, 3)]
    for m in adapted_monomials(W_A2, 3):
        assert all(c >= 0 for c in m)


def _oracle_adapted_monomials(w, height_bound):
    """Every sum_k a_k n_k of height <= height_bound, by enumerating the
    coefficient vectors a in a box."""
    N = len(w.word)
    gens = [flag_minor_datum(w, k) for k in range(1, N + 1)]
    heights = [sum(weight_tuple(w, g)) for g in gens]
    found = set()
    for a in itertools.product(*(range(height_bound // h + 1)
                                 for h in heights)):
        if sum(c * h for c, h in zip(a, heights)) <= height_bound:
            found.add(tuple(sum(c * g[t] for c, g in zip(a, gens))
                            for t in range(N)))
    return sorted(found, key=lambda m: (sum(m), m))


def test_adapted_monomials_match_box_enumeration():
    for label, bound in (("A2", 5), ("B2", 4), ("A3", 3)):
        w = longest_word(CartanDatum(label))
        assert adapted_monomials(w, bound) == \
            _oracle_adapted_monomials(w, bound), label


def test_adapted_monomials_walk_deep_bounds():
    # one generator of height 1 reaches depth 3000, past the default
    # recursion limit of a recursive walk
    w = ReducedWord(CartanDatum("A1"), (1,))
    got = adapted_monomials(w, 3000)
    assert len(got) == 3001
    assert got == [(h,) for h in range(3001)]


def test_all_data_up_to():
    data = all_data_up_to(W_A2, 2)
    assert (1, 0, 0) in data and (0, 1, 0) in data and (1, 0, 1) in data
    assert (0, 0, 0) not in data
    assert all(sum(dim) <= 2 for dim in
               ((m[0] + m[1], m[1] + m[2]) for m in data))


def test_harness_a2_small():
    # Exhaustive scan at H=3 for both A2 orientations: no violations and
    # every q-commuting pair is multiplicative.
    for o in all_orientations(A2):
        report = verify_theorem_51(o, 3)
        assert report["violations"] == []
        assert report["q_commuting"] == report["multiplicative"]
        assert report["pairs_scanned"] > 0


def test_harness_report_shape():
    report = verify_theorem_51(parse_orientation(A2, "2>1"), 2)
    assert report["schema"] == 1
    assert report["orientation"] == "2>1"
    assert report["word"] == [1, 2, 1]
    assert set(report) >= {"pairs_scanned", "q_commuting", "multiplicative",
                           "violations", "height_bound"}
