"""q-commutation, multiplicativity on the dual canonical basis, and the
product-verification harness."""

import itertools

import pytest

import qminor.mult
from qminor.scalars import LaurentPoly, RatScalar, ZERO
from qminor.rootdata import CartanDatum, ReducedWord, longest_word
from qminor.pbw import d_form, weight_tuple, data_of_weight
from qminor.canonical import (flag_minor_datum, dual_canonical_element,
                              dual_pbw_expansion, dual_product)
from qminor.mult import (q_commute_exponent_coords, is_multiplicative,
                         check_511, adapted_monomials, all_data_up_to,
                         verify_theorem_51, _dual_can_coords,
                         _is_predicted_basis_element)
from qminor.quiver import parse_orientation, all_orientations, adapted_word

A2 = CartanDatum("A2")
W_A2 = longest_word(A2)


def coords(m):
    return _dual_can_coords(W_A2, m)


def test_q_commute_self_is_zero():
    assert q_commute_exponent_coords(W_A2, coords((1, 0, 0)),
                                     coords((1, 0, 0)))[0] == 0


def test_q_commute_flag_minor_example():
    # The full flag minor against E_1*: exponent <(Id + w_0)varpi_1, a1>
    # = <varpi_1 - varpi_2, a1> = 1.
    n3 = flag_minor_datum(W_A2, 3)
    e, xy = q_commute_exponent_coords(W_A2, coords(n3), coords((1, 0, 0)))
    assert e == 1
    # the product it returns is B(n3)* E_1*, formed once
    assert xy == dual_product(W_A2, coords(n3), coords((1, 0, 0)))


def test_q_commute_absent():
    # E_1* and E_2* do not q-commute: their commutator involves E(e_2).
    assert q_commute_exponent_coords(W_A2, coords((1, 0, 0)),
                                     coords((0, 0, 1))) is None


def q_commute_exponent(b, bp, w):
    """The exponent for two elements, through their dual-PBW coordinates."""
    qc = q_commute_exponent_coords(w, dual_pbw_expansion(b, w),
                                   dual_pbw_expansion(bp, w))
    return None if qc is None else qc[0]


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
    got = q_commute_exponent_coords(W_A2, {}, {})
    assert got == (None if expected is None else (expected, xy))


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


def test_harness_a2_small(monkeypatch):
    # Exhaustive scan at H=3 for both A2 orientations: no violations and
    # every q-commuting pair is multiplicative, each decided from its
    # product with no expansion in {B*}.
    def unreachable(*args):
        raise AssertionError("expanded a pair the verdict decides")

    monkeypatch.setattr(qminor.mult, "is_multiplicative", unreachable)
    monkeypatch.setattr(qminor.mult, "check_511", unreachable)
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


# -- the Theorem 5.1 verdict against the expansion ---------------------------

def _target(m, mp):
    return tuple(a + b for a, b in zip(m, mp))


def _oracle_51(w, m, mp):
    """q^d(m,mp) B(m)* B(mp)* = B(m+mp)*, by the single-term expansion in
    {B*} and the lattice congruence."""
    return (is_multiplicative(w, m, mp) == (d_form(w, m, mp), _target(m, mp))
            and check_511(w, m, mp))


def _q_commuting_pairs(o, height_bound):
    """(w, m, mp, (e, xy)) for every q-commuting pair that
    verify_theorem_51 scans, in both orders."""
    w = adapted_word(o)
    lattice = [m for m in adapted_monomials(w, height_bound) if any(m)]
    others = all_data_up_to(w, height_bound)
    pairs = {(m, mp) for m in lattice for mp in others}
    for m, mp in sorted(pairs | {(mp, m) for m, mp in pairs}):
        qc = q_commute_exponent_coords(w, _dual_can_coords(w, m),
                                       _dual_can_coords(w, mp))
        if qc is not None:
            yield w, m, mp, qc


def verdict_disagreements(o, height_bound):
    """(pairs checked, pairs where _is_predicted_basis_element and the
    expansion disagree) over the q-commuting pairs of the scan."""
    checked, bad = 0, []
    for w, m, mp, qc in _q_commuting_pairs(o, height_bound):
        checked += 1
        if _is_predicted_basis_element(w, m, mp, *qc) != _oracle_51(w, m, mp):
            bad.append((m, mp))
    return checked, bad


@pytest.mark.parametrize("label, height_bound", [("A2", 4), ("A3", 3)])
def test_verdict_matches_expansion(label, height_bound):
    checked = 0
    for o in all_orientations(CartanDatum(label)):
        n, bad = verdict_disagreements(o, height_bound)
        assert bad == [], (o.render(), bad)
        checked += n
    assert checked > 0


def _perturbations(w, m, mp, xy):
    """Products that are not q^-d B(m+mp)*, each with the coordinate at
    m+mp or at another datum of its weight moved out of 1 + qL*."""
    d = d_form(w, m, mp)
    target = _target(m, mp)
    yield {n: c.shift(1) for n, c in xy.items()}
    yield {n: -c for n, c in xy.items()}
    for n in data_of_weight(w, weight_tuple(w, target)):
        if n != target:
            out = dict(xy)
            out[n] = out.get(n, ZERO) + _lq(-d)
            yield {k: c for k, c in out.items() if not c.is_zero()}


def test_verdict_rejects_what_the_expansion_rejects(monkeypatch):
    # every q-commuting pair of A2 and A3 is multiplicative, so a product
    # perturbed out of q^-d B(m+mp)* + q^(1-d) L* is where the verdict must
    # say no; the expansion reads the same perturbed product
    pairs = [p for label, height_bound in (("A2", 3), ("A3", 2))
             for o in all_orientations(CartanDatum(label))
             for p in _q_commuting_pairs(o, height_bound)]
    rejected = 0
    for w, m, mp, (e, xy) in pairs:
        for bad in _perturbations(w, m, mp, xy):
            monkeypatch.setattr(qminor.mult, "dual_product",
                                lambda w, ca, cb, bad=bad: bad)
            assert not _oracle_51(w, m, mp), (m, mp, bad)
            assert not _is_predicted_basis_element(w, m, mp, e, bad)
            rejected += 1
    assert rejected > 0


def test_verdict_needs_the_predicted_exponent():
    # (i): a q-commuting pair read with the wrong exponent is not fixed by
    # the twisted bar
    n1, n3 = flag_minor_datum(W_A2, 1), flag_minor_datum(W_A2, 3)
    e, xy = q_commute_exponent_coords(W_A2, coords(n1), coords(n3))
    assert _is_predicted_basis_element(W_A2, n1, n3, e, xy)
    assert not _is_predicted_basis_element(W_A2, n1, n3, e + 2, xy)


@pytest.mark.parametrize("factor, reasons", [
    # q^(1-d) B(m+mp)*: a single term with the wrong power
    (_lq(1), ["power/datum mismatch", "lattice congruence failed"]),
    # (1 + q) q^-d B(m+mp)*: no q-power, but congruent mod qL*
    (_lq(0) + _lq(1), ["q-commuting but not a single basis term"]),
])
def test_rejected_pairs_keep_their_reasons(monkeypatch, factor, reasons):
    o = parse_orientation(A2, "2>1")
    clean = verify_theorem_51(o, 3)
    monkeypatch.setattr(qminor.mult, "dual_product",
                        lambda w, ca, cb: {n: c * factor for n, c in
                                           dual_product(w, ca, cb).items()})
    report = verify_theorem_51(o, 3)
    assert report["q_commuting"] == clean["q_commuting"] > 0
    assert [v["reason"] for v in report["violations"]] == \
        reasons * report["q_commuting"]
    first = report["violations"][0]
    if "got" in first:      # one power of q off, at the predicted datum
        assert first["got"] == [first["expected"][0] - 1,
                                first["expected"][1]]
