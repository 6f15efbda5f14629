"""The braid automorphisms T_i of U_q(g) and the root vectors of their
full braid chains, kept as the test oracle of pbw.root_vector.

T_i follows Jantzen, Lectures on Quantum Groups, 8.14:
T_i(E_i) = -F_i K_{alpha_i}, T_i(F_i) = -K_{-alpha_i} E_i,
T_i(K_lambda) = K_{s_i(lambda)}, and for i != j with r = -a_ij
T_i(E_j) = sum_s (-1)^(r-s) q_i^(s-r) E_i^(s) E_j E_i^(r-s),
T_i(F_j) = sum_s (-1)^(r-s) q_i^(r-s) F_i^(r-s) F_j F_i^(s).
The root vector E_{beta_k} = q^(a_k) T_{i_1} ... T_{i_{k-1}}(E_{i_k}) is
evaluated letter by letter in U_q(g) through qea.tri_mul, projected back
to U_q(n) (NotInUqn if an F or K part survives) and scaled by the root
unit q^(a_k) of pbw._root_units.  Nothing here reads the q-commutator
rule of pbw.root_vector.
"""

from functools import cache

from qminor.pbw import _root_units
from qminor.qea import TriExpr, WordExpr, tri_mul
from qminor.rootdata import reflect
from qminor.scalars import LaurentPoly, ONE, RatScalar, quantum_factorial


@cache
def _braid_gen(datum, i, kind, j, mult):
    """T_i applied to E_j^{(mult)}, F_j^{(mult)} or (kind 'K') K_lambda
    with lambda given by the coordinate tuple j."""
    if kind == "K":
        return TriExpr.k_elt(datum, reflect(datum, i, j))
    if i == j:
        if kind == "E":
            # T_i(E_i) = -F_i K_{alpha_i}
            base = TriExpr(datum, {
                (((i, 1),), datum.alpha(i), ()):
                RatScalar.from_laurent(LaurentPoly.from_int(-1))})
        else:
            # T_i(F_i) = -K_{-alpha_i} E_i
            base = TriExpr(datum, {
                ((), datum.alpha(i, -1), ((i, 1),)):
                RatScalar.from_laurent(LaurentPoly.from_int(-1))})
        return _tri_divided_power(datum, base, mult, datum.root_norm(i))
    a = datum.cartan[i - 1][j - 1]
    di = datum.d[i - 1]
    total = TriExpr.zero(datum)
    for s in range(-a + 1):
        if kind == "E":
            exp = a + s
            term = TriExpr.one(datum)
            if s:
                term = tri_mul(term, TriExpr.e_gen(datum, i, s))
            term = tri_mul(term, TriExpr.e_gen(datum, j))
            if -a - s:
                term = tri_mul(term, TriExpr.e_gen(datum, i, -a - s))
        else:
            exp = -a - s
            term = TriExpr.one(datum)
            if -a - s:
                term = tri_mul(term, TriExpr.f_gen(datum, i, -a - s))
            term = tri_mul(term, TriExpr.f_gen(datum, j))
            if s:
                term = tri_mul(term, TriExpr.f_gen(datum, i, s))
        sign = -1 if (-a - s) % 2 else 1
        total = total + term.scale(RatScalar.q_power(di * exp, sign))
    return _tri_divided_power(datum, total, mult, datum.root_norm(j))


def _tri_divided_power(datum, x, mult, norm):
    """x^mult / [mult]! at the given root norm."""
    out = TriExpr.one(datum)
    for _ in range(mult):
        out = tri_mul(out, x)
    if mult > 1:
        out = out.scale(RatScalar(ONE, quantum_factorial(mult, norm)))
    return out


def braid_T(i, x):
    """The braid automorphism T_i on a TriExpr, generator by generator."""
    datum = x.datum
    out = TriExpr.zero(datum)
    zk = (0,) * datum.rank
    for (f, k, e), c in x.terms.items():
        term = TriExpr.one(datum)
        for j, m in f:
            term = tri_mul(term, _braid_gen(datum, i, "F", j, m))
        if k != zk:
            term = tri_mul(term, _braid_gen(datum, i, "K", k, 1))
        for j, m in e:
            term = tri_mul(term, _braid_gen(datum, i, "E", j, m))
        out = out + term.scale(c)
    return out


@cache
def braid_chain(datum, word, kind="E"):
    """T_{i_1} ... T_{i_{k-1}}(E_{i_k}) (kind 'E') or of F_{i_k} (kind
    'F') in U_q(g), where word = (i_1, ..., i_k): every letter of the
    prefix, shared suffix recursion."""
    if len(word) > 1:
        return braid_T(word[0], braid_chain(datum, word[1:], kind))
    gen = TriExpr.e_gen if kind == "E" else TriExpr.f_gen
    return gen(datum, word[0])


def braid_root_vector(w, k):
    """E_{beta_k} = q^(a_k) T_{i_1} ... T_{i_{k-1}}(E_{i_k}) as a
    UPlusExpr."""
    return braid_chain(w.datum, w.word[:k]).project_uplus().scale(
        RatScalar.q_power(_root_units(w)[k - 1][0]))


def braid_f_root_vector(w, k):
    """F_{beta_k} = q^(a_k) T_{i_1} ... T_{i_{k-1}}(F_{i_k}), projected to
    the F side: the braid image may hold no E or K part."""
    zk = (0,) * w.datum.rank
    terms = {}
    for (f, kv, e), c in braid_chain(w.datum, w.word[:k], "F").terms.items():
        if e or kv != zk:
            raise ArithmeticError("F-side braid image has E/K content: %r"
                                  % ((f, kv, e),))
        terms[f] = c
    return WordExpr(w.datum, terms, "F").scale(
        RatScalar.q_power(_root_units(w)[k - 1][0]))
