"""PBW root vectors, monomials, coordinates and straightening by WordExpr
products over Q(q), kept as the test oracle of the plain-word sums of
pbw (_plain_root_vector, _plain_monomial and the pairings on them).

Every product here is WordExpr.__mul__: divided-power words, merged by
canonicalize_word, with one reduced RatScalar per term.  The root vectors
follow the q-commutator rule of pbw._plain_root_vector, E(m) multiplies
their divided powers one at a time, F(m) is E(m) on the F side times the
unit of f_pbw_monomial, and every coordinate is a qea.pairing of
WordExprs.  Nothing here reads a PlainSum that pbw built.
"""

from functools import cache

from qminor.pbw import (StraighteningError, _data_of_weight, _normalizer_pair,
                        _root_norm, _root_table, _root_units, check_datum,
                        render_datum, weight_tuple)
from qminor.qea import WordExpr, pairing
from qminor.rootdata import num_positive_roots, reduced_completion
from qminor.scalars import LaurentPoly, ONE, RatScalar, quantum_factorial


@cache
def oracle_root_vector(w, k):
    """E_{beta_k} by the q-commutator rule, with WordExpr products."""
    if len(w.word) < num_positive_roots(w.datum):
        return oracle_root_vector(reduced_completion(w), k)
    betas, gram = _root_table(w)
    beta = betas[k - 1]
    if sum(beta) == 1:
        return WordExpr.generator(w.datum, 1 + beta.index(1))
    _, i, j = min((j - i, i, j) for i in range(k - 1)
                  for j in range(k, len(betas))
                  if all(a + b == c for a, b, c in
                         zip(betas[i], betas[j], beta)))
    b = gram[i][j]
    x, y = oracle_root_vector(w, i + 1), oracle_root_vector(w, j + 1)
    if gram[i][i] == gram[j][j] < gram[k - 1][k - 1]:
        c_inv = RatScalar(ONE, LaurentPoly({-1: 1, 1: 1}))
    else:
        c_inv = RatScalar.q_power(-b)
    return (x * y - (y * x).scale(RatScalar.q_power(b))).scale(c_inv)


@cache
def oracle_pbw_monomial(w, m):
    """E(m), one divided power at a time."""
    m = check_datum(w, m)
    out = WordExpr.one(w.datum)
    for k, c in enumerate(m, start=1):
        if c:
            power = oracle_root_vector(w, k) ** c
            if c > 1:
                power = power.scale(
                    RatScalar(ONE, quantum_factorial(c, _root_norm(w, k))))
            out = out * power
    return out


def oracle_f_pbw_monomial(w, m):
    """F(m) = (-1)^odd q^a omega(E(m)), each coefficient shifted and
    signed."""
    m = check_datum(w, m)
    a = sum(c * ak for c, (ak, _) in zip(m, _root_units(w)))
    odd = sum(c * hk for c, (_, hk) in zip(m, _root_units(w))) % 2
    return WordExpr(w.datum, {word: -c.shift(a) if odd else c.shift(a)
                              for word, c in
                              oracle_pbw_monomial(w, m).terms.items()},
                    "F")


def oracle_pairing_em_fn(w, m, n):
    return pairing(oracle_pbw_monomial(w, m), oracle_f_pbw_monomial(w, n))


def oracle_pbw_coordinate(x, w, m):
    """c_m = (x, F(m)) f_m u_m for a WordExpr x of the weight of m."""
    f, u = _normalizer_pair(w, m)
    return pairing(x, oracle_f_pbw_monomial(w, m)) * f * u


def oracle_pbw_coordinates(x, w):
    """pbw_coordinates, weight component by weight component."""
    coeffs = {}
    for mu, comp in x.homogeneous_components().items():
        for m in _data_of_weight(w, mu):
            c = oracle_pbw_coordinate(comp, w, m)
            if not c.is_zero():
                coeffs[m] = c
    return coeffs


@cache
def oracle_straighten_commutator(w, k, kp):
    """S* of pbw.straighten_commutator from the WordExpr product
    E_{beta_k'} E_{beta_k}, paired against every datum of its weight that
    is supported strictly inside (k, k') (the full search, filtered)."""
    N = len(w.word)
    lead = tuple(1 if t in (k - 1, kp - 1) else 0 for t in range(N))
    b = _root_table(w)[1][k - 1][kp - 1]
    x = oracle_root_vector(w, kp) * oracle_root_vector(w, k)
    lead_b = oracle_pbw_coordinate(x, w, lead)
    if lead_b != RatScalar.q_power(-b):
        raise StraighteningError(
            "coefficient of %s in E_%d E_%d of %s is %s, not q^%d"
            % (render_datum(lead), kp, k, w.render(), lead_b.render(), -b))
    scale = _normalizer_pair(w, lead)[0] * RatScalar.q_power(b, -1)
    out = {}
    for m in _data_of_weight(w, weight_tuple(w, lead)):
        if not any(m[:k]) and not any(m[kp - 1:]):
            c = scale * pairing(x, oracle_f_pbw_monomial(w, m)) * \
                _normalizer_pair(w, m)[1]
            if not c.is_zero():
                out[m] = c.as_laurent()
    return out
