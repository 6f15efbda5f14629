"""The named verification suites: structure of the reports and small
exhaustive runs of each suite."""

import pytest

import qminor.pbw

from qminor.scalars import LaurentPoly, RatScalar
from qminor.rootdata import CartanDatum
from qminor.checks import (standard_words, weights_up_to, check_serre,
                           check_pairing, check_biorthogonality,
                           check_normalizers, check_prop21, check_cor22,
                           check_prop31, check_prop32, check_prop41,
                           check_prop42, check_thm51, check_remark43,
                           SUITES)


def test_standard_words():
    ws = standard_words(CartanDatum("A2"))
    assert [w.word for w in ws] == [(1, 2, 1), (2, 1, 2)]
    a3 = standard_words(CartanDatum("A3"))
    assert len(a3) == 2
    assert a3[1].word == tuple(4 - i for i in a3[0].word)
    # B2 is its own reversal image under the trivial symmetry
    for w in standard_words(CartanDatum("B2")):
        assert len(w.word) == 4


def test_weights_up_to():
    mus = weights_up_to(CartanDatum("A2"), 2)
    assert set(mus) == {(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)}


def test_suite_registry_matches_cli_names():
    assert set(SUITES) == {"serre", "pairing", "prop21", "cor22", "prop31",
                           "prop32", "prop41", "prop42", "thm51", "remark43"}


def test_serre_suite():
    for label in ("A2", "A3", "B2", "D4"):
        r = check_serre(label)
        assert r["ok"] and r["failures"] == []


def test_serre_suite_with_no_relation_is_an_error():
    # A1 has no pair i != j, so the suite would examine nothing
    with pytest.raises(ValueError, match="A1 has no Serre relation"):
        check_serre("A1")


def test_pairing_suite():
    for label in ("A2", "B2"):
        r = check_pairing(label)
        assert r["ok"], r["failures"]


def test_biorthogonality_small():
    r = check_biorthogonality("A2", 4)
    assert r["ok"], r["failures"]
    # every pair of data of one weight, on both standard words
    a2 = CartanDatum("A2")
    assert r["checked"] == sum(len(qminor.pbw.data_of_weight(w, mu)) ** 2
                               for w in standard_words(a2)
                               for mu in weights_up_to(a2, 4)) == 74


def test_normalizers_small():
    r = check_normalizers("B2", 4)
    assert r["ok"], r["failures"]
    b2 = CartanDatum("B2")
    assert r["checked"] == sum(len(qminor.pbw.data_of_weight(w, mu))
                               for w in standard_words(b2)
                               for mu in weights_up_to(b2, 4)) == 48


@pytest.mark.parametrize("check", [check_biorthogonality, check_normalizers])
def test_pbw_suite_that_checked_nothing_fails(check):
    # height 0 has no weight, so nothing is paired
    r = check("A2", 0)
    assert r["checked"] == 0
    assert r["failures"] == []
    assert not r["ok"]


def test_normalizer_bar_failure_is_reported_not_raised(monkeypatch):
    # 1 + 2q has f(0) = 1, but bar(f)/f = (q + 2)/(q (1 + 2q)) is not a
    # Laurent polynomial
    f = RatScalar.from_laurent(LaurentPoly({0: 1, 1: 2}))
    monkeypatch.setattr(qminor.pbw, "dual_pbw_normalizer", lambda w, m: f)
    r = check_normalizers("A2", 1)
    assert not r["ok"]
    assert [1, 2, 1] in [fl[0] for fl in r["failures"]]
    assert {fl[2] for fl in r["failures"]} == {"bar", "pairing"}


def test_prop21_suite():
    for label in ("A2", "B2"):
        r = check_prop21(label)
        assert r["ok"], r["failures"]


def test_prop21_checks_the_sigma_eta_premise_by_pairing(monkeypatch):
    # The bar matrix assumes sigma_eta(E*_k) = s_beta E*_k, so B(e_k)* =
    # E(e_k)* holds whatever the pairing says; the suite must still fail
    # when the paired image of E_beta is wrong.
    coords = qminor.pbw.pbw_coordinates
    monkeypatch.setattr(qminor.pbw, "pbw_coordinates",
                        lambda x, w: {m: -c for m, c in coords(x, w).items()})
    r = check_prop21("B2")
    assert not r["ok"]
    assert r["failures"] == [[list(w.word), k, "sigma_eta"]
                             for w in standard_words(CartanDatum("B2"))
                             for k in range(1, 5)]


def test_cor22_small():
    r = check_cor22("A2", 4)
    assert r["ok"], r["failures"]


def test_prop31_small():
    r = check_prop31("A2", 3)
    assert r["ok"], r["failures"]


def test_prop32_small():
    r = check_prop32("A2", 3)
    assert r["ok"], r["failures"]


def test_prop41_suite():
    for label in ("A2", "A3"):
        r = check_prop41(label)
        assert r["ok"], r["failures"]
        assert r["orientations"] == {"A2": 2, "A3": 4}[label]


def test_prop42_small():
    r = check_prop42("A2", 3)
    assert r["ok"], r["failures"]


def test_thm51_small():
    r = check_thm51("A2", 3, orientation="2>1")
    assert r["ok"], r["failures"]
    assert r["reports"][0]["violations"] == []


def test_remark43_report_shape():
    r = check_remark43()
    assert r["prefix"] == [2, 1, 3, 2]
    assert r["weight"] == [1, 2, 1, 0]
    assert r["ok"] is True
    assert isinstance(r["matches"], list)
    # no adapted flag minor has the weight (1,2,1,0), by the lemma in the
    # docstring of check_remark43, and the report says so
    assert r["same_weight_candidates"] == 0
    assert r["decided_by"] == "weight"
