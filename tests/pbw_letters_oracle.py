"""The letter-sequence straightening in PBW coordinates over Q(q), kept as
the independent test oracle of pbw.straighten_commutator, pbw.pbw_product
and every product built on canonical's table of E*_l E(m)*.

It pairs out its own straightening law, S in PBW coordinates, and
bubble-sorts any sequence of root-vector letters with it, one adjacent
inversion at a time, over Q(q).  Its root vectors and coordinates are the
WordExpr products of tests/word_product_oracle.py.  No part of it reads
S*, the letter table or pbw's plain-word sums.
"""

from functools import cache

from qminor.pbw import (StraighteningError, _data_of_weight, _root_norm,
                        _root_table, render_datum, weight_tuple)
from qminor.scalars import RatScalar, add_term, quantum_factorial

from datum_oracle import letters_of_datum
from word_product_oracle import oracle_pbw_coordinate, oracle_root_vector


@cache
def pbw_straighten_commutator(w, k, kp):
    """The lower-order part S of the straightening of E_{beta_k} E_{beta_k'}
    against its reversal (k < k'), as a PBW coordinate dict:
    E_{beta_k'} E_{beta_k} = q^{-(beta_k, beta_k')} (E_{beta_k} E_{beta_k'}
    - sum_m S[m] E(m)).

    E_{beta_k} E_{beta_k'} is the PBW monomial E(e_k + e_k'), so only the
    reversed product is paired.  Its coefficient on e_k + e_k' must be
    q^{-(beta_k, beta_k')}, else StraighteningError.  By convexity the
    rest of its support lies strictly between k and k', so it is paired
    only against e_k + e_k' and the data of that weight inside (k, k').
    """
    N = len(w.word)
    lead = tuple(1 if t in (k - 1, kp - 1) else 0 for t in range(N))
    b = _root_table(w)[1][k - 1][kp - 1]
    x = oracle_root_vector(w, kp) * oracle_root_vector(w, k)
    lead_b = oracle_pbw_coordinate(x, w, lead)
    if lead_b != RatScalar.q_power(-b):
        raise StraighteningError(
            "coefficient of %s in E_%d E_%d of %s is %s, not q^%d"
            % (render_datum(lead), kp, k, w.render(), lead_b.render(), -b))
    scale = RatScalar.q_power(b, -1)
    out = {}
    for m in _data_of_weight(w, weight_tuple(w, lead)):
        if not any(m[:k]) and not any(m[kp - 1:]):
            c = oracle_pbw_coordinate(x, w, m)
            if not c.is_zero():
                out[m] = scale * c
    return out


def _datum_of_letters(N, letters):
    m = [0] * N
    for k in letters:
        m[k - 1] += 1
    return tuple(m)


def _letter_factorial(w, m):
    """prod_k [m_k]_{q_{beta_k}}! relating E(m) to the plain letter product:
    (letter product) = (this scalar) * E(m)."""
    out = RatScalar.one()
    for k, c in enumerate(m, start=1):
        if c > 1:
            out = out * RatScalar.from_laurent(
                quantum_factorial(c, _root_norm(w, k)))
    return out


@cache
def _straighten_letters(w, letters):
    """PBW coordinates of E_{beta_{l_1}} ... E_{beta_{l_r}} for an arbitrary
    sequence of root indices, by repeated application of the straightening
    law E_{beta_{k'}}E_{beta_k} = q^{-<beta_{k'},beta_k>}(E_{beta_k}E_{beta_{k'}}
    - lower-order terms), k < k'.  Terminates since each step either removes
    an adjacent inversion or replaces a pair by strictly intermediate letters.
    """
    pos = next((i for i in range(len(letters) - 1)
                if letters[i] > letters[i + 1]), None)
    if pos is None:
        m = _datum_of_letters(len(w.word), letters)
        return {m: _letter_factorial(w, m)}
    x, y = letters[pos], letters[pos + 1]
    pre, suf = letters[:pos], letters[pos + 2:]
    unit = RatScalar.q_power(-_root_table(w)[1][x - 1][y - 1])
    acc = {}
    for d, c in _straighten_letters(w, pre + (y, x) + suf).items():
        add_term(acc, d, unit * c)
    for sm, sc in pbw_straighten_commutator(w, y, x).items():
        corr = unit * sc / _letter_factorial(w, sm)
        sub = pre + letters_of_datum(sm) + suf
        for d, c in _straighten_letters(w, sub).items():
            add_term(acc, d, -(corr * c))
    return acc


def pbw_letters_product(w, ca, cb):
    """The product of two elements given by PBW coordinate dicts, again as
    a PBW coordinate dict, by straightening the letters of each pair of
    monomials."""
    out = {}
    for m, cm in ca.items():
        lm = letters_of_datum(m)
        fm = _letter_factorial(w, m)
        for n, cn in cb.items():
            pref = (cm * cn) / (fm * _letter_factorial(w, n))
            for d, c in _straighten_letters(w, lm + letters_of_datum(n)).items():
                add_term(out, d, pref * c)
    return out
