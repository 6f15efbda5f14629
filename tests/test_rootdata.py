"""Cartan data, the symmetric form, reduced words and root sequences."""

import pytest

from qminor.rootdata import (CartanDatum, Vec, ReducedWord, NotReduced,
                             form, reflect, weyl_act, longest_word,
                             positive_roots, num_positive_roots,
                             beta_sequence, dual_vertex, is_reduced,
                             reduced_completion, all_reduced_words_for_w0)

LABELS = ("A1", "A2", "A3", "A4", "B2", "D4")


def alpha(datum, *coords):
    return Vec.from_root_coords(datum, coords)


def test_cartan_matrices_are_symmetrizable():
    for label in LABELS:
        d = CartanDatum(label)
        A = d.cartan
        for i in range(d.rank):
            assert A[i][i] == 2
            for j in range(d.rank):
                assert d.d[i] * A[i][j] == d.d[j] * A[j][i]


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        CartanDatum("E8")
    with pytest.raises(ValueError):
        CartanDatum("A5")


def test_form_values():
    # <a_1, a_2> = -1 in A2; <w_1, a_1> = 1; <a_2, a_2> = 4 in B2 (long root).
    a2 = CartanDatum("A2")
    assert form(a2.alpha(1), a2.alpha(2)) == -1
    assert form(a2.varpi(1), a2.alpha(1)) == 1
    assert form(a2.varpi(1), a2.alpha(2)) == 0
    b2 = CartanDatum("B2")
    assert form(b2.alpha(1), b2.alpha(1)) == 2
    assert form(b2.alpha(2), b2.alpha(2)) == 4


def test_form_is_symmetric():
    for label in LABELS:
        d = CartanDatum(label)
        for i in d.indices:
            for j in d.indices:
                assert form(d.alpha(i), d.alpha(j)) == \
                    form(d.alpha(j), d.alpha(i))


def test_reflections():
    d = CartanDatum("A2")
    assert reflect(1, d.alpha(1)) == -d.alpha(1)
    assert reflect(1, d.alpha(2)) == d.alpha(1) + d.alpha(2)
    # w_0(varpi_1) = -varpi_2 in A2, iterating the reflections of (1,2,1).
    assert weyl_act(d, (1, 2, 1), d.varpi(1)) == -d.varpi(2)


def test_reflection_is_involutive_and_isometric():
    d = CartanDatum("B2")
    for i in d.indices:
        for j in d.indices:
            v = d.alpha(j)
            assert reflect(i, reflect(i, v)) == v
            assert form(reflect(i, v), reflect(i, v)) == form(v, v)


def test_longest_word_lengths():
    # |R^+| = 3, 6, 10, 4, 12 for A2, A3, A4, B2, D4.
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "D4": 12}
    for label, n in expected.items():
        d = CartanDatum(label)
        assert num_positive_roots(d) == n
        w = longest_word(d)
        assert len(w) == n
        assert is_reduced(d, w.word)


def test_beta_sequence_a2():
    d = CartanDatum("A2")
    w = ReducedWord(d, (1, 2, 1))
    assert w.betas == (alpha(d, 1, 0), alpha(d, 1, 1), alpha(d, 0, 1))
    w2 = ReducedWord(d, (2, 1, 2))
    assert w2.betas == (alpha(d, 0, 1), alpha(d, 1, 1), alpha(d, 1, 0))


def test_beta_sequence_enumerates_positive_roots():
    for label in LABELS:
        d = CartanDatum(label)
        w = longest_word(d)
        assert set(w.betas) == set(positive_roots(d))
        assert len(set(w.betas)) == len(w.betas)


def test_non_reduced_rejected():
    d = CartanDatum("A2")
    with pytest.raises(NotReduced):
        ReducedWord(d, (1, 1, 2))
    assert not is_reduced(d, (1, 1))


def test_dual_vertex():
    # w_0 = -(flip) in A2; the middle node of A3 is fixed; w_0 = -1 in D4.
    assert dual_vertex(CartanDatum("A2"), 1) == 2
    assert dual_vertex(CartanDatum("A3"), 2) == 2
    assert dual_vertex(CartanDatum("A3"), 1) == 3
    for i in (1, 2, 3, 4):
        assert dual_vertex(CartanDatum("D4"), i) == i
        assert dual_vertex(CartanDatum("B2"), i % 2 + 1) == i % 2 + 1


def test_reduced_completion():
    d = CartanDatum("A3")
    w = reduced_completion(ReducedWord(d, (1, 2)))
    assert len(w) == 6
    assert w.word[:2] == (1, 2)


def test_all_reduced_words_a2():
    d = CartanDatum("A2")
    words = {w.word for w in all_reduced_words_for_w0(d)}
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_inversion_set_is_word_independent():
    d = CartanDatum("A3")
    a = ReducedWord(d, (1, 2, 1, 3, 2, 1)).inversion_set()
    b = longest_word(d).inversion_set()
    assert set(a) == set(b)


def test_vec_coordinate_roundtrip():
    d = CartanDatum("B2")
    v = alpha(d, 3, 2)
    assert Vec.from_weight_coords(d, v.weight_coords()) == v
    assert v.height() == 5
    assert v.is_positive()
    assert not (-v).is_positive()


def _negative_weyl_act(datum, word, x):
    """A broken Weyl action under which no root ever stays positive."""
    return -x


def test_stalled_searches_raise_named_errors(monkeypatch):
    import qminor.rootdata
    from qminor.rootdata import SearchStalled, NoDualVertex
    d = CartanDatum("A2")
    prefix = ReducedWord(d, (1,))
    longest_word(d)         # cached, for dual_vertex below
    monkeypatch.setattr(qminor.rootdata, "weyl_act", _negative_weyl_act)
    with pytest.raises(SearchStalled, match="descent search stalled"):
        longest_word.__wrapped__(d)
    with pytest.raises(SearchStalled, match="completion stalled"):
        reduced_completion(prefix)
    # -w_0(alpha_1) = -(-alpha_1) under the broken action: not simple
    monkeypatch.setattr(qminor.rootdata, "weyl_act",
                        lambda datum, word, x: x + x)
    with pytest.raises(NoDualVertex):
        dual_vertex.__wrapped__(d, 1)
    assert issubclass(SearchStalled, ArithmeticError)
    assert issubclass(NoDualVertex, ArithmeticError)
