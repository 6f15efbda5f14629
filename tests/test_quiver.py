"""Quiver orientations, sink reflections, adapted words, AR translation
and Hom/Ext dimensions from dimension data."""

import pytest

from qminor.rootdata import CartanDatum, longest_word
from qminor.pbw import unit_datum, d_form
from qminor.quiver import (NotASink, parse_orientation,
                           all_orientations, reflect_at_sink, adapted_word,
                           tau, tau_class, dim_vector, euler_form, hom_dim,
                           ext_dim, check_d_identity, check_monotone,
                           typeA_flag_word, dynkin_edges, PROJECTIVE)

A2 = CartanDatum("A2")
A3 = CartanDatum("A3")
D4 = CartanDatum("D4")


def test_orientation_parse_and_render():
    o = parse_orientation(A2, "2>1")
    assert o.arrows == frozenset({(2, 1)})
    assert o.render() == "2>1"
    assert o.sinks() == [1]
    assert o.is_sink(1) and not o.is_sink(2)


def test_orientation_validation():
    with pytest.raises(ValueError):
        parse_orientation(A2, "1>3")        # not an edge
    with pytest.raises(ValueError):
        parse_orientation(A3, "2>1")        # misses edge 2-3
    with pytest.raises(ValueError):
        parse_orientation(CartanDatum("B2"), "1>2")   # not simply laced


def test_orientation_counts():
    # One orientation per choice of direction on each edge: 2, 4, 8.
    assert len(all_orientations(A2)) == 2
    assert len(all_orientations(A3)) == 4
    assert len(all_orientations(D4)) == 8
    assert len(dynkin_edges(D4)) == 3


def test_reflect_at_sink():
    o = parse_orientation(A2, "2>1")
    assert reflect_at_sink(o, 1) == parse_orientation(A2, "1>2")
    with pytest.raises(NotASink):
        reflect_at_sink(o, 2)
    # A3 left-oriented: reflecting at 1 flips only the 1-2 edge.
    o3 = parse_orientation(A3, "2>1,3>2")
    assert reflect_at_sink(o3, 1) == parse_orientation(A3, "1>2,3>2")


def test_adapted_words():
    assert adapted_word(parse_orientation(A2, "2>1")).word == (1, 2, 1)
    assert adapted_word(parse_orientation(A2, "1>2")).word == (2, 1, 2)
    assert adapted_word(parse_orientation(A3, "2>1,3>2")).word == \
        (1, 2, 1, 3, 2, 1)


def test_adapted_word_exists_for_all_orientations():
    for datum in (A2, A3, D4):
        n = len(longest_word(datum))
        for o in all_orientations(datum):
            w = adapted_word(o)
            assert len(w) == n
            # the first letter is a sink of the orientation
            assert o.is_sink(w.word[0])


def test_tau():
    w = longest_word(A2)  # (1,2,1)
    assert tau(w, 3) == 1
    assert tau(w, 2) is PROJECTIVE
    assert tau(w, 1) is PROJECTIVE
    assert tau_class(w, (1, 1, 2)) == (2, 0, 0)


def test_dim_vector_is_gabriel():
    w = longest_word(A3)
    assert dim_vector(w, unit_datum(6, 4)) == w.betas[3] == (1, 1, 1)


def test_euler_form():
    o = parse_orientation(A2, "2>1")
    assert euler_form(o, (0, 1), (1, 0)) == -1    # the arrow 2->1
    assert euler_form(o, (1, 0), (0, 1)) == 0
    assert euler_form(o, (1, 1), (1, 1)) == 1


def test_hom_ext_examples():
    # A2 with arrow 2->1, word (1,2,1): S_2 = position 3, S_1 = position 1.
    # eps(S_2, S_1) = <(0,1),(1,0)> + eps(S_1, tau S_2) = -1 + 1 = 0;
    # zeta(S_2, S_1) = eps(S_1, tau S_2) = eps(S_1, S_1) = 1.
    o = parse_orientation(A2, "2>1")
    w = adapted_word(o)
    s2, s1 = unit_datum(3, 3), unit_datum(3, 1)
    assert hom_dim(o, w, s2, s1) == 0
    assert ext_dim(o, w, s2, s1) == 1
    assert hom_dim(o, w, s1, s1) == 1
    assert ext_dim(o, w, s1, s1) == 0


def test_hom_is_additive():
    o = parse_orientation(A3, "2>1,2>3")
    w = adapted_word(o)
    a, b, c = unit_datum(6, 1), unit_datum(6, 3), unit_datum(6, 5)
    ab = tuple(x + y for x, y in zip(a, b))
    assert hom_dim(o, w, ab, c) == hom_dim(o, w, a, c) + hom_dim(o, w, b, c)
    assert ext_dim(o, w, c, ab) == ext_dim(o, w, c, a) + ext_dim(o, w, c, b)


def test_d_identity_a2_example():
    # d(e_3, e_1) = -1 = eps(M_1, M_3) - zeta(M_3, M_1) = 0 - 1 and
    # d(e_1, e_3) = 0 = 0 - 0, for the 2->1 orientation.
    o = parse_orientation(A2, "2>1")
    w = adapted_word(o)
    e1, e3 = unit_datum(3, 1), unit_datum(3, 3)
    assert d_form(w, e3, e1) == -1
    assert hom_dim(o, w, e1, e3) - ext_dim(o, w, e3, e1) == -1
    assert d_form(w, e1, e3) == 0
    assert hom_dim(o, w, e3, e1) - ext_dim(o, w, e1, e3) == 0


def test_d_identity_all_orientations():
    for datum in (A2, A3, D4):
        for o in all_orientations(datum):
            w = adapted_word(o)
            assert check_d_identity(o, w, samples=25, seed=7) == []


def test_monotone_a2():
    o = parse_orientation(A2, "2>1")
    w = adapted_word(o)
    for k in (1, 2, 3):
        assert check_monotone(o, w, k, 3) == []


def test_typeA_flag_words():
    prefix, w = typeA_flag_word(A2, [2])
    assert prefix == (1,)
    assert w.word[0] == 1 and len(w) == 3
    assert typeA_flag_word(A3, [2, 3])[0] == (1, 2)
    assert typeA_flag_word(A3, [1, 2])[0] == ()
    assert typeA_flag_word(A3, [2, 4])[0] == (1, 3, 2)
    with pytest.raises(ValueError):
        typeA_flag_word(A3, [5])
    with pytest.raises(ValueError):
        typeA_flag_word(CartanDatum("B2"), [1])


def test_missing_adapted_word_raises_named_error(monkeypatch):
    import qminor.quiver
    from qminor.quiver import NoAdaptedWord
    monkeypatch.setattr(qminor.quiver, "weyl_act",
                        lambda datum, word, x: tuple(-c for c in x))
    with pytest.raises(NoAdaptedWord, match="no adapted word for 2>1"):
        adapted_word(parse_orientation(A2, "2>1"))
    assert issubclass(NoAdaptedWord, ArithmeticError)
