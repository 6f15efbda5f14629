"""Acceptance gate: twelve exhaustive desk-scale criteria, one test (and
one pass/fail line) each.  Every identity is checked exactly -- no
tolerances anywhere -- and each criterion carries its runtime budget."""

import time

from qminor.rootdata import CartanDatum
from qminor.quiver import all_orientations, adapted_word
from qminor.mult import verify_theorem_51
from qminor import checks

A2 = CartanDatum("A2")
A3 = CartanDatum("A3")
B2 = CartanDatum("B2")
D4 = CartanDatum("D4")


def timed(budget_seconds, fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    elapsed = time.monotonic() - t0
    assert elapsed < budget_seconds, \
        "runtime %.1fs exceeded the %.0fs budget" % (elapsed, budget_seconds)
    return out, elapsed


def announce(n, label, elapsed):
    print("criterion %2d PASS (%5.1fs): %s" % (n, elapsed, label))


def adapted_words(datum):
    return [adapted_word(o) for o in all_orientations(datum)]


def test_criterion_01_serre_and_pairing_foundation():
    def run():
        for label in ("A2", "A3", "B2"):
            assert checks.check_serre(label)["ok"], label
            assert checks.check_pairing(label)["ok"], label
    _, t = timed(10, run)
    announce(1, "Serre elements vanish; pairing generator axioms verbatim",
             t)


def test_criterion_02_pbw_biorthogonality():
    def run():
        for label, h in (("A2", 5), ("B2", 5), ("A3", 4)):
            words = checks.standard_words(CartanDatum(label))
            assert len(words) >= 2 or label == "B2"
            r = checks.check_biorthogonality(label, h, words)
            assert r["ok"], r["failures"]
    _, t = timed(120, run)
    announce(2, "PBW biorthogonality (A2/B2 height 5, A3 height 4)", t)


def test_criterion_03_normalizers():
    def run():
        for label, h in (("A2", 5), ("B2", 5), ("A3", 4)):
            r = checks.check_normalizers(label, h)
            assert r["ok"], r["failures"]
    _, t = timed(120, run)
    announce(3, "f_m(0) = 1 and bar(f_m) = +-q^a f_m on the full range", t)


def test_criterion_04_dual_root_vectors_are_canonical():
    def run():
        for label in ("A2", "A3", "B2"):
            r = checks.check_prop21(label)
            assert r["ok"], r["failures"]
    _, t = timed(120, run)
    announce(4, "B(e_k)* = E(e_k)* for every k and tested word", t)


def test_criterion_05_unitriangularity():
    def run():
        for label, h in (("A2", 5), ("A3", 4)):
            datum = CartanDatum(label)
            words = checks.standard_words(datum) + adapted_words(datum)
            seen, distinct = set(), []
            for w in words:
                if w.word not in seen:
                    seen.add(w.word)
                    distinct.append(w)
            r = checks.check_cor22(label, h, distinct)
            assert r["ok"], r["failures"]
    _, t = timed(300, run)
    announce(5, "rlex unitriangularity, qZ[q] corrections, Ext-order "
                "support on adapted words", t)


def test_criterion_06_flag_minor_commutation():
    def run():
        for label in ("A2", "A3"):
            r = checks.check_prop31(label, 4,
                                    adapted_words(CartanDatum(label)))
            assert r["ok"], r["failures"]
    _, t = timed(300, run)
    announce(6, "exact q-power commutation of flag minors, exponent "
                "<(Id+w)varpi, mu>", t)


def test_criterion_07_flag_minor_congruence():
    def run():
        for label in ("A2", "A3"):
            r = checks.check_prop32(label, 4,
                                    adapted_words(CartanDatum(label)))
            assert r["ok"], r["failures"]
    _, t = timed(300, run)
    announce(7, "q^d Delta* E(m)* = E(n+m)* mod qL* and the d-form "
                "identities", t)


def test_criterion_08_hom_ext_identity():
    def run():
        for label, count in (("A2", 2), ("A3", 4), ("D4", 8)):
            r = checks.check_prop41(label)
            assert r["ok"], r["failures"]
            assert r["orientations"] == count
    _, t = timed(30, run)
    announce(8, "d(iota M, iota N) = eps(N,M) - zeta(M,N), all "
                "orientations of A2/A3/D4", t)


def test_criterion_09_hom_form_and_monotonicity():
    def run():
        for label in ("A2", "A3"):
            r = checks.check_prop42(label, 4)
            assert r["ok"], r["failures"]
    _, t = timed(600, run)
    announce(9, "d(n_k, .) = eps(., M_k), monotone along the Ext order", t)


def test_criterion_10_multiplicativity_harness():
    def run():
        for datum, h in ((A2, 5), (A3, 4)):
            for o in all_orientations(datum):
                r = verify_theorem_51(o, h)
                assert r["violations"] == [], (o.render(), r["violations"])
                assert r["q_commuting"] == r["multiplicative"]
    _, t = timed(900, run)
    announce(10, "zero violations: A2 at H=5 and A3 at H=4, every "
                 "orientation", t)


def test_criterion_11_typeA_minors_are_adapted():
    def run():
        r = checks.check_claim43("A3")
        assert r["ok"], r["failures"]
        assert r["minors_checked"] == 11
    _, t = timed(300, run)
    announce(11, "every type-A row-set minor equals an adapted flag minor "
                 "(element level)", t)


def test_criterion_12_d4_minor_is_not_adapted():
    def run():
        r = checks.check_remark43()
        assert r["weight"] == [1, 2, 1, 0]
        assert r["matches"] == []
        assert r["open_finding"] is False
    _, t = timed(600, run)
    announce(12, "the D4 prefix s2s1s3s2 minor matches no adapted flag "
                 "minor", t)
