"""Cartan data, the symmetric form, reduced words and root sequences."""

import pytest

from qminor.rootdata import (CartanDatum, ReducedWord, NotReduced,
                             form, reflect, weyl_act, is_positive,
                             minor_weight, longest_word, positive_roots,
                             num_positive_roots, dual_vertex,
                             is_reduced, reduced_completion,
                             all_reduced_words_for_w0)
from qminor.checks import standard_words
from qminor.quiver import adapted_word, all_orientations

from weight_oracle import (fundamental_weights, frac_form, frac_reflect,
                           frac_weyl_act, frac_minor_weight)

LABELS = ("A1", "A2", "A3", "A4", "B2", "D4")


def neg(x):
    return tuple(-c for c in x)


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
    assert form(a2, a2.alpha(1), a2.alpha(2)) == -1
    varpi_1 = fundamental_weights(a2)[0]
    assert frac_form(a2, varpi_1, a2.alpha(1)) == 1
    assert frac_form(a2, varpi_1, a2.alpha(2)) == 0
    b2 = CartanDatum("B2")
    assert form(b2, b2.alpha(1), b2.alpha(1)) == 2
    assert form(b2, b2.alpha(2), b2.alpha(2)) == 4


def test_form_is_symmetric():
    for label in LABELS:
        d = CartanDatum(label)
        for i in d.indices:
            for j in d.indices:
                assert form(d, d.alpha(i), d.alpha(j)) == \
                    form(d, d.alpha(j), d.alpha(i))


def test_reflections():
    d = CartanDatum("A2")
    assert reflect(d, 1, d.alpha(1)) == d.alpha(1, -1)
    assert reflect(d, 1, d.alpha(2)) == (1, 1)
    # w_0(varpi_1) = -varpi_2 in A2, iterating the reflections of (1,2,1).
    varpi = fundamental_weights(d)
    assert frac_weyl_act(d, (1, 2, 1), varpi[0]) == neg(varpi[1])
    # (Id - w_0)varpi_1 = varpi_1 + varpi_2 = alpha_1 + alpha_2
    assert minor_weight(d, (1, 2, 1)) == (1, 1)


def test_reflection_is_involutive_and_isometric():
    d = CartanDatum("B2")
    for i in d.indices:
        for j in d.indices:
            v = d.alpha(j)
            assert reflect(d, i, reflect(d, i, v)) == v
            assert form(d, reflect(d, i, v), reflect(d, i, v)) == \
                form(d, v, v)


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
    assert w.betas == ((1, 0), (1, 1), (0, 1))
    w2 = ReducedWord(d, (2, 1, 2))
    assert w2.betas == ((0, 1), (1, 1), (1, 0))


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


def test_weight_coordinate_roundtrip():
    # root coordinates -> fundamental-weight coordinates <x, alpha_i>/d_i
    # -> root coordinates, through the oracle's varpi_i
    d = CartanDatum("B2")
    v = (3, 2)
    varpi = fundamental_weights(d)
    wt = [frac_form(d, v, d.alpha(i)) / d.d[i - 1] for i in d.indices]
    back = tuple(sum(c * vp[t] for c, vp in zip(wt, varpi))
                 for t in range(d.rank))
    assert back == v
    assert is_positive(v)
    assert not is_positive(neg(v))
    assert not is_positive((0, 0))
    assert not is_positive((1, -1))


# -- the int walks against the Fraction route ----------------------------------

def _oracle_words(label):
    """Every reduced word of w_0 for A1, A2, A3 and B2; the standard and
    adapted words for A4 and D4."""
    datum = CartanDatum(label)
    if label in ("A1", "A2", "A3", "B2"):
        return all_reduced_words_for_w0(datum)
    words = {w.word: w for w in standard_words(datum)}
    for o in all_orientations(datum):
        words.setdefault(adapted_word(o).word, adapted_word(o))
    return list(words.values())


@pytest.mark.parametrize("label", LABELS)
def test_int_walks_match_fraction_route(label):
    # on every prefix of every oracle word: the minor weight, the
    # reflections of it and of each simple root, the Weyl action of the
    # prefix on each simple root, and the form between them
    datum = CartanDatum(label)
    simple = [datum.alpha(j) for j in datum.indices]
    checked = 0
    for w in _oracle_words(label):
        for k in range(1, len(w.word) + 1):
            prefix = w.word[:k]
            nu = minor_weight(datum, prefix)
            assert nu == frac_minor_weight(datum, prefix), (w.word, k)
            images = [weyl_act(datum, prefix, a) for a in simple]
            assert images == [frac_weyl_act(datum, prefix, a)
                              for a in simple], (w.word, k)
            for x in [nu, w.betas[k - 1]] + simple + images:
                for i in datum.indices:
                    assert reflect(datum, i, x) == \
                        frac_reflect(datum, i, x), (w.word, k, i, x)
                for y in [nu] + simple:
                    assert form(datum, x, y) == frac_form(datum, x, y)
            checked += 1
    assert checked


def _negative_weyl_act(datum, word, x):
    """A broken Weyl action under which no root ever stays positive."""
    return neg(x)


def test_stalled_searches_raise_named_errors(monkeypatch):
    import qminor.rootdata
    from qminor.rootdata import SearchStalled, NoDualVertex
    d = CartanDatum("A2")
    prefix = ReducedWord(d, (1,))
    longest_word(d)         # cached, for dual_vertex below
    monkeypatch.setattr(qminor.rootdata, "weyl_act", _negative_weyl_act)
    with pytest.raises(SearchStalled, match="completion stalled"):
        longest_word.__wrapped__(d)
    with pytest.raises(SearchStalled, match="completion stalled"):
        reduced_completion(prefix)
    # -w_0(alpha_1) = -(-alpha_1) under the broken action: not simple
    monkeypatch.setattr(qminor.rootdata, "weyl_act",
                        lambda datum, word, x: tuple(2 * c for c in x))
    with pytest.raises(NoDualVertex):
        dual_vertex.__wrapped__(d, 1)
    assert issubclass(SearchStalled, ArithmeticError)
    assert issubclass(NoDualVertex, ArithmeticError)
