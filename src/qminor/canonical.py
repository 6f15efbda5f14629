"""The dual canonical basis per weight space, the lattice L*, quantum
flag minors, and Demazure support flags.

Everything is phrased in dual-PBW coordinates for a fixed reduced word
of w_0: L* is the Z[q]-span of the E(m)*, and B(m)* is the unique
element of E(m)* + qL* fixed by the twisted bar involution
x -> s_mu^{-1} sigma(eta(x)).  The solve is the standard unitriangular
recursion over the right-lexicographic order.
"""

from functools import cache

from .scalars import LaurentPoly, ZERO, ONE, add_term
from .rootdata import form, minor_weight
from .qea import WordExpr
from .pbw import (pbw_monomial, dual_pbw_normalizer, data_of_weight,
                  check_datum, weight_tuple, render_datum,
                  rlex_less, pbw_coordinates, straighten_commutator,
                  _record, _root_table)


class NotUnitriangular(ArithmeticError):
    """The twisted bar matrix failed rlex unitriangularity (convention bug)."""


class NoSolution(ArithmeticError):
    """The triangular solve met a correction term that is not
    bar-antisymmetric (convention bug)."""


class FlagMinorWeightMismatch(ArithmeticError):
    """A flag-minor datum does not have the weight (Id - w)(varpi_i)
    (convention bug)."""


# -- dual PBW basis --------------------------------------------------------

def dual_pbw_element(w, m):
    """E(m)* = f_m E(m) as a UPlusExpr."""
    return pbw_monomial(w, m).scale(dual_pbw_normalizer(w, m))


def dual_pbw_expansion(x, w):
    """Coordinates of x in the dual PBW basis {E(m)*}."""
    return pbw_to_dual_coords(w, pbw_coordinates(x, w))


def from_dual_pbw(w, coords):
    """Assemble a UPlusExpr from dual-PBW coordinates."""
    x = WordExpr.zero(w.datum)
    for m, c in coords.items():
        x = x + dual_pbw_element(w, m).scale(c)
    return x


# -- coordinate-level algebra ------------------------------------------------
#
# Dual-PBW coordinate dicts {datum: LaurentPoly} support exact products and
# sigma_eta with no pairing evaluation at the (possibly large) product
# weight.  Both push dual root vectors E*_k into a coordinate dict over
# Z[q, q^-1] (an integral form), one at a time, through a per-word table
# of E*_l E(m)* that reads the straightening law of pbw's
# straighten_commutator, already in these coordinates: a product pushes
# the letters of each E(m)*, and sigma_eta(E(n)*) is a signed q-power
# times the reversed letters of n.  Both are sums of denominator-free
# multiply-adds; a RatScalar coordinate makes them RatScalar.  The PBW
# coordinates of pbw_product are this product through f_m and back.

def dual_to_pbw_coords(w, coords):
    """E(m)* = f_m E(m): convert {E(m)*}-coordinates to {E(m)}-coordinates."""
    return {m: c * dual_pbw_normalizer(w, m) for m, c in coords.items()}


def pbw_to_dual_coords(w, coords):
    return {m: c / dual_pbw_normalizer(w, m) for m, c in coords.items()}


@cache
def _letter_times_datum(w, l, m):
    """T(l, m) = E*_l E(m)* in dual-PBW coordinates {datum: LaurentPoly}.

    Let x be the first letter of m.  If m = 0 or l <= x, E*_l E(m)* is
    q^e(m) times the sorted letters of m + e_l, so q^-(d_l m_l) E(m + e_l)*
    (e(m) of pbw._record).  Otherwise, with r = m - e_x, E(m)* =
    q^(d_x (m_x - 1)) E*_x E(r)*, and the swap law of straighten_commutator
    gives T(l, m) = q^(d_x (m_x - 1) - (beta_x, beta_l)) (E*_x T(l, r)
    - sum_s S*[s] E(s)* E(r)*).  The letters of s lie strictly between x
    and l, so (l, |m|) falls lexicographically and the recursion ends;
    with S* Laurent, every coefficient stays in Z[q, q^-1].
    """
    gram = _root_table(w)[1]
    x = next((k for k, c in enumerate(m, start=1) if c), l)
    if l <= x:
        n = m[:l - 1] + (m[l - 1] + 1,) + m[l:]
        return {n: LaurentPoly.q_power(-(gram[l - 1][l - 1] // 2)
                                       * m[l - 1])}
    r = m[:x - 1] + (m[x - 1] - 1,) + m[x:]
    acc = _push_letters(w, (x,), _letter_times_datum(w, l, r))
    for s, c in straighten_commutator(w, x, l).items():
        rec = _record(w, s)
        sr = {r: -c.shift(rec.e)}
        for d, v in _push_letters(w, rec.letters, sr).items():
            add_term(acc, d, v)
    e = gram[x - 1][x - 1] // 2 * (m[x - 1] - 1) - gram[x - 1][l - 1]
    return {d: c.shift(e) for d, c in acc.items()}


def _push_letters(w, letters, coords):
    """E*_{l_1} ... E*_{l_r} x for x in dual-PBW coordinates: the letters
    enter x one at a time through _letter_times_datum, the last first."""
    for l in reversed(letters):
        out = {}
        for d, c in coords.items():
            for t, v in _letter_times_datum(w, l, d).items():
                add_term(out, t, c * v)
        coords = out
    return coords


def dual_product(w, ca, cb):
    """Product of two elements given in dual-PBW coordinates: the letters
    of each E(m)* of ca pushed into the whole of cb, times q^e(m)."""
    out = {}
    for m, cm in ca.items():
        rec = _record(w, m)
        pref = cm.shift(rec.e)
        for d, c in _push_letters(w, rec.letters, cb).items():
            add_term(out, d, pref * c)
    return out


def _sigma_eta_unit(w, n):
    """q^-e(n) prod_k s_{beta_k}^{n_k}, a signed power of q: the exponent
    of s_beta (eigen_scalar) is linear in beta but for its term
    -(beta, beta)/2, and its sign is (-1)^ht beta, so both sum over n
    through its weight and letters (pbw._record)."""
    gram = _root_table(w)[1]
    rec = _record(w, n)
    exp = -rec.e - sum(x * d for x, d in zip(rec.weight, w.datum.d))
    exp -= sum(gram[l - 1][l - 1] // 2 for l in rec.letters)
    return LaurentPoly.q_power(exp, -1 if sum(rec.weight) % 2 else 1)


def sigma_eta_dual_coords(w, coords):
    """Dual-PBW coordinates of sigma_eta(x) for x given the same way:
    sigma_eta(E(n)*) = q^-e(n) prod_k s_{beta_k}^{n_k} E*_N^{n_N} ...
    E*_1^{n_1}, the reversed letters of n.  Proof: (1) B(e_k)* = E*_k
    (Prop 2.1), so the twisted bar fixes E*_k and sigma_eta(E*_k) =
    s_{beta_k} E*_k; (2) E(n)* = q^e(n) E*_1^{n_1} ... E*_N^{n_N}
    (e(n) of pbw._record); (3) sigma_eta is a bar-linear antiautomorphism,
    so it turns q^e(n) into q^-e(n) and reverses the letters, each
    rescaled by (1)."""
    acc = {}
    for n, c in coords.items():
        col = {(0,) * len(n): c.bar() * _sigma_eta_unit(w, n)}
        for m, v in _push_letters(w, _record(w, n).letters[::-1],
                                  col).items():
            add_term(acc, m, v)
    return acc


# -- the lattice L* ---------------------------------------------------------

def coords_congruent_mod_qL(ca, cb):
    """True iff ca - cb lies in qL*: every dual-PBW coordinate of the
    difference is in qZ[q]."""
    return all((ca.get(m, ZERO) - cb.get(m, ZERO)).is_in_qZq()
               for m in set(ca) | set(cb))


# -- the twisted bar involution ----------------------------------------------

def eigen_scalar(datum, mu):
    """s_mu = (-1)^tr(mu) q^{-(<mu,mu>/2 + sum k_i d_i)} for
    mu = sum k_i alpha_i."""
    tr = sum(mu)
    half_norm = form(datum, mu, mu) // 2
    dsum = sum(k * d for k, d in zip(mu, datum.d))
    return LaurentPoly.q_power(-(half_norm + dsum), -1 if tr % 2 else 1)


def bar_matrix(mu, w):
    """Entries r[m][n] of x -> s_mu^{-1} sigma(eta(x)) on the dual PBW
    basis of the weight space; unitriangular for rlex with unit diagonal.
    s_mu is a signed power of q, so s_mu^{-1} is its bar.
    """
    s_inv = eigen_scalar(w.datum, mu).bar()
    data = data_of_weight(w, mu)
    R = {}
    for n in data:
        col = sigma_eta_dual_coords(w, {n: ONE})
        col = {m: c * s_inv for m, c in col.items()}
        diag = col.get(n)
        if diag is None or not diag.is_one():
            raise NotUnitriangular(
                "diagonal entry at %s is %s, expected 1"
                % (render_datum(n), diag.render() if diag else "0"))
        for m, c in col.items():
            if m != n and not rlex_less(m, n):
                raise NotUnitriangular(
                    "entry (%s, %s) = %s above the diagonal"
                    % (render_datum(m), render_datum(n), c.render()))
            R.setdefault(m, {})[n] = c
    return tuple(data), R


def _solve_skew(g):
    """The unique p in qZ[q] with p - bar(p) = g, for a Laurent g with
    g + bar(g) = 0, which also forces a zero constant term."""
    if g + g.bar() != ZERO:
        raise NoSolution("correction term %s is not bar-antisymmetric"
                         % g.render())
    return LaurentPoly({e: c for e, c in g.coeffs.items() if e > 0})


def dual_canonical_basis(mu, w):
    """All B(n)* of the weight space, as dual-PBW coordinate dicts
    keyed by n.  Each satisfies B(n)* = E(n)* + sum_{m rlex< n} c_m E(m)*
    with c_m in qZ[q] and twisted-bar fixedness."""
    return _dual_canonical_basis(tuple(mu), w)


@cache
def _dual_canonical_basis(mu, w):
    data, R = bar_matrix(mu, w)
    basis = {}
    for i, n in enumerate(data):
        c = {n: ONE}
        # fill in descending rlex below n (data is sorted rlex ascending)
        for m in reversed(data[:i]):
            row = R.get(m, {})
            g = ZERO
            for p, cp in c.items():
                if p in row:
                    g = g + row[p] * cp.bar()
            cm = _solve_skew(g)
            if not cm.is_zero():
                c[m] = cm
        basis[n] = c
    return basis


def dual_canonical_element(w, n):
    """B(n)* as a UPlusExpr."""
    n = check_datum(w, n)
    return from_dual_pbw(w, dual_canonical_basis(weight_tuple(w, n), w)[n])


def expand_dual_canonical_coords(coords, w):
    """Coordinates in {B(m)*} of an element given in dual-PBW coordinates:
    invert the unitriangular change of basis per weight component."""
    out = {}
    by_weight = {}
    for m, c in coords.items():
        by_weight.setdefault(weight_tuple(w, m), {})[m] = c
    for mu, cc in by_weight.items():
        basis = dual_canonical_basis(mu, w)
        rem = dict(cc)
        for n in reversed(data_of_weight(w, mu)):
            b = rem.pop(n, ZERO)
            if b.is_zero():
                continue
            out[n] = b
            for m, c in basis[n].items():
                if m != n:
                    add_term(rem, m, -(b * c))
        if rem:
            raise NotUnitriangular("unitriangular inversion left residue")
    return out


# -- flag minors and Demazure flags -------------------------------------------

def flag_minor_datum(w, k):
    """n_wtilde = sum of e_l over {l <= k : i_l = i_k}."""
    if not 1 <= k <= len(w.word):
        raise ValueError("prefix length out of range")
    i = w.word[k - 1]
    return tuple(1 if (l < k and w.word[l] == i) else 0
                 for l in range(len(w.word)))


def flag_minor(w, k):
    """The quantum flag minor of the length-k prefix: (datum, element).

    The weight is (Id - w)(varpi_{i_k}) for w = s_{i_1} ... s_{i_k}.
    """
    n = flag_minor_datum(w, k)
    elt = dual_canonical_element(w, n)
    expected = minor_weight(w.datum, w.word[:k])
    got = weight_tuple(w, n)
    if expected != got:
        raise FlagMinorWeightMismatch("flag minor weight mismatch: %r vs %r"
                                      % (expected, got))
    return n, elt


def demazure_flag(m, k):
    """True iff the datum is supported on the first k coordinates."""
    return all(c == 0 for c in m[k:])


# -- rendering -----------------------------------------------------------------

def basis_element_json(w, n):
    """JSON-ready dict for one dual canonical basis element."""
    n = check_datum(w, n)
    mu = weight_tuple(w, n)
    coords = dual_canonical_basis(mu, w)[n]
    return {
        "word": list(w.word),
        "datum": list(n),
        "weight": list(mu),
        "dual_pbw": {render_datum(m): coords[m].render()
                     for m in sorted(coords)},
    }
