"""The PBW record of a Lusztig datum (pbw._pbw_record) built from
scratch, as its test oracle.

pbw grows the record of m from the record of m - e_k, k the last letter
of m, one product per field.  Here E(m) is the chain of plain root
vectors concatenated one factor at a time, with one [m_k]_{beta_k}! per
factor; (f_m, u_m) is Lusztig's product formula looped over every
letter of m, with u_m = prod_k (-q^(-(beta_k, beta_k) - 3 a_k))^(m_k)
summed as ints; F(m)'s unit is summed likewise, and its denominator is
taken from that chain; and each q-derivation state D_v E(m) is a fresh
chain of qea._derive from the chain's terms.  Nothing here reads a
record that pbw built.
"""

from qminor.pbw import _plain_root_vector, _root_norm, _root_units
from qminor.qea import PlainSum, _derive, _weight_factors
from qminor.scalars import LaurentPoly, ONE, quantum_factorial


def oracle_plain_monomial(w, m):
    """E(m) for a checked datum m as a PlainSum: the root vectors
    concatenated, E_{beta_k}^(c) = E_{beta_k}^c / [c]_{beta_k}!."""
    out = PlainSum((0,) * w.datum.rank, {(): ONE})
    for k, c in enumerate(m, start=1):
        for _ in range(c):
            out = out * _plain_root_vector(w, k)
        if c > 1:
            out = PlainSum(out.weight, out.terms, out.den
                           * quantum_factorial(c, _root_norm(w, k)))
    return out


def oracle_normalizer_pair(w, m):
    """(f_m, u_m) with 1/(E(m), F(m)) = u_m f_m, as LaurentPolys, for a
    checked datum m: f_m = prod_k prod_{s=1..m_k} (1 - q^{s (beta_k,
    beta_k)}) and the unit summed as an exponent and a sign."""
    f = ONE
    exp = count = 0
    for k, c in enumerate(m, start=1):
        if c:
            norm = _root_norm(w, k)
            for s in range(1, c + 1):
                f = f * (ONE - LaurentPoly.q_power(s * norm))
            exp -= c * (norm + 3 * _root_units(w)[k - 1][0])
            count += c
    return f, LaurentPoly.q_power(exp, -1 if count % 2 else 1)


def oracle_f_unit(w, m):
    """(a, odd) with F(m) = (-1)^odd q^a omega(E(m)): a = sum m_k a_k and
    odd = sum m_k (ht beta_k - 1) mod 2."""
    units = _root_units(w)
    return (sum(c * ak for c, (ak, _) in zip(m, units)),
            sum(c * hk for c, (_, hk) in zip(m, units)) % 2)


def oracle_f_den(w, m):
    """den(E(m)) times the generator-factor denominator of the weight,
    over F(m)'s unit (-1)^odd q^a."""
    p = oracle_plain_monomial(w, m)
    a, odd = oracle_f_unit(w, m)
    den = (p.den * _weight_factors(w.datum, p.weight)[1]).shift(-a)
    return -den if odd else den


def record_differences(record, w, m):
    """The names of the fields of record, the PBW record of the checked
    datum m on w, that differ from the oracles: e by weight, den and
    its terms in order; states, whose () entry must be e's own terms and
    every entry D_v E(m) the oracle's chain of q-derivations along v;
    f_den, f, u and f_unit."""
    e = oracle_plain_monomial(w, m)
    f, u = oracle_normalizer_pair(w, m)
    a, odd = oracle_f_unit(w, m)
    out = []
    if (record.e.weight, record.e.den) != (e.weight, e.den) or \
            list(record.e.terms.items()) != list(e.terms.items()):
        out.append("e")
    if record.states.get(()) is not record.e.terms or \
            any(state != _derivation_chain(w, e.terms, v)
                for v, state in record.states.items()):
        out.append("states")
    for name, want in (("f_den", oracle_f_den(w, m)), ("f", f), ("u", u),
                       ("f_unit", LaurentPoly.q_power(a, -1 if odd else 1))):
        if getattr(record, name) != want:
            out.append(name)
    return out


def _derivation_chain(w, terms, v):
    for b in v:
        terms = _derive(w.datum, terms, b)
    return terms
