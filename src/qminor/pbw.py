"""PBW root vectors and monomials, PBW coordinates, the d- and c-forms,
and the two orderings on Lusztig data.

A Lusztig datum is a vector m in Z_{>=0}^N tied to a reduced word of
w_0; the PBW monomial is E(m) = E_{beta_1}^{(m_1)} ... E_{beta_N}^{(m_N)}.
The root vectors E_{beta_k} come from the Cartan-Weyl q-commutator rule
in U_q(n) (_plain_root_vector); they are the braid root vectors
q^(a_k) T_{i_1} ... T_{i_{k-1}}(E_{i_k}), which tests/braid_oracle.py
evaluates in U_q(g) as their oracle.  Root vectors and PBW monomials are
built once per (word, index or datum) as qea.PlainSums, plain-word sums
over Z[q, q^-1] with one Laurent denominator, multiplied by concatenating
words; root_vector, pbw_monomial and f_pbw_monomial are WordExpr views of
them.  Coordinates of arbitrary elements are computed through the Hopf
pairing against the mirrored F-side monomials F(m) (biorthogonality),
never by word rewriting.  F(m) is E(m) pushed through the Chevalley
involution omega (E_i <-> F_i, K_mu -> K_-mu) and scaled by a unit +-q^a
(see f_pbw_monomial), so the cached plain sum of E(m) serves both sides.
A pairing walks q-derivations of its E-side sum along the plain words of
F(n) (qea._walk), keeping the state of every prefix it derives.  Each
E(m) keeps its states in one dict per word and datum (_derivations), and
each F(n) its words and its denominator, unit included (_f_side), so a
Gram entry (E(m), F(n)) derives only the prefixes that no earlier F(n) of
its weight brought to E(m); the one-off sums of pbw_coordinates and
straighten_commutator share a fresh dict over the data they are paired
with.  The dual PBW normalizers f_m come from Lusztig's product formula
for (E(m), F(m)), and their units u_m in closed form from the root
units, as Laurent polynomials; a diagonal Gram entry that the walk shows
equal to 1/(u_m f_m) takes that reduced form with no gcd (pairing_em_fn).
The straightening law of two dual root vectors E*_k = E(e_k)* is paired
out once per pair, in dual-PBW coordinates over Z[q, q^-1], by exact
division; canonical builds every product on it.  The integers of a datum
that those products and the Theorem 5.1 scan read (its letters, e(m),
weight and d-form row) are computed once per word and checked datum
(_record).
"""

from collections import namedtuple
from functools import cache
from operator import mul

from .scalars import (LaurentPoly, RatScalar, ONE, InexactDivision,
                      add_term, quantum_factorial, _exact_divide)
from .rootdata import form, num_positive_roots, reduced_completion
from .qea import PlainSum, plain_sums, _walk, _weight_factors


# -- root vectors ----------------------------------------------------------

@cache
def _root_table(w):
    """(betas, gram): the roots beta_k as int root-coordinate tuples and
    their Gram matrix gram[k-1][l-1] = (beta_k, beta_l) over the ints."""
    betas = w.betas
    return betas, tuple(tuple(form(w.datum, a, b) for b in betas)
                        for a in betas)


@cache
def _root_units(w):
    """(a_k, ht beta_k - 1) for k = 1..N.  a_k = sum c_i d_i -
    <beta_k,beta_k>/2 for beta_k = sum c_i alpha_i is the exponent of
    the unit q^(a_k) by which E_{beta_k} (root_vector) differs from the
    braid image T_{i_1} ... T_{i_{k-1}}(E_{i_k}), and ht beta_k - 1 the
    sign exponent of F_{beta_k} in f_pbw_monomial.

    The unit is trivial on simple roots and makes the dual PBW basis
    compatible with the twisted bar involution (unit diagonal) while
    keeping every dual normalizer f_m in 1 + qZ[q].
    """
    betas, gram = _root_table(w)
    return tuple((sum(c * d for c, d in zip(beta, w.datum.d))
                  - gram[k][k] // 2, sum(beta) - 1)
                 for k, beta in enumerate(betas))


@cache
def root_vector(w, k):
    """E_{beta_k} for the reduced word w, as a UPlusExpr: the WordExpr
    view of _plain_root_vector."""
    return _plain_root_vector(w, k).word_expr(w.datum)


@cache
def _plain_root_vector(w, k):
    """E_{beta_k} as a PlainSum with its terms in lexicographic order, by
    the Cartan-Weyl q-commutator rule (Khoroshkin-Tolstoy, Comm. Math.
    Phys. 141, 1991).

    If beta_k = alpha_j, E_{beta_k} = E_j.  Otherwise take the pair
    i < k < j with beta_i + beta_j = beta_k, of smallest j - i and then
    smallest i, and b = (beta_i, beta_j):
    E_{beta_k} = (E_{beta_i} E_{beta_j} - q^b E_{beta_j} E_{beta_i}) / c,
    with c = q + q^-1 where two short roots add up to a long one (B2),
    which joins the denominator, and c = q^b otherwise, a shift.  On a
    word shorter than w_0 the pair is taken in reduced_completion(w),
    since E_{beta_k} depends only on i_1 ... i_k.

    This is the braid root vector q^(a_k) T_{i_1} ... T_{i_{k-1}}(E_{i_k})
    (_root_units) of tests/braid_oracle.py, with the T_i of Jantzen,
    Lectures on Quantum Groups, 8.14: the tests and CI compare the two by
    canonical_form on every reduced word for w_0 of every type in
    rootdata._CARTAN.  The supported types are that fixed finite list, so
    the exhaustive comparison is the proof; no general theorem is claimed.
    """
    if len(w.word) < num_positive_roots(w.datum):
        return _plain_root_vector(reduced_completion(w), k)
    betas, gram = _root_table(w)
    beta = betas[k - 1]
    if sum(beta) == 1:
        return PlainSum(beta, {(1 + beta.index(1),): ONE})
    _, i, j = min((j - i, i, j) for i in range(k - 1)
                  for j in range(k, len(betas))
                  if all(a + b == c for a, b, c in
                         zip(betas[i], betas[j], beta)))
    b = gram[i][j]
    x, y = _plain_root_vector(w, i + 1), _plain_root_vector(w, j + 1)
    xy = x * y
    terms = dict(xy.terms)
    for u, c in (y * x).terms.items():
        add_term(terms, u, -c.shift(b))
    den = xy.den
    if gram[i][i] == gram[j][j] < gram[k - 1][k - 1]:
        den = den * LaurentPoly({-1: 1, 1: 1})
    else:
        terms = {u: c.shift(-b) for u, c in terms.items()}
    return PlainSum(beta, dict(sorted(terms.items())), den)


# -- PBW monomials and coordinates ------------------------------------------

def check_datum(w, m):
    """m as a tuple of ints; raises ValueError unless it has one entry per
    letter of w and every entry is a nonnegative integer (an entry such as
    1.7 is refused, not truncated)."""
    given = tuple(m)
    m = tuple(map(int, given))
    if m != given:
        raise ValueError("non-integer entry in Lusztig datum %s" % (given,))
    if len(m) != len(w.word):
        raise ValueError("datum length %d != word length %d"
                         % (len(m), len(w.word)))
    if m and min(m) < 0:
        raise ValueError("negative entry in Lusztig datum %s" % (m,))
    return m


def weight_tuple(w, m):
    """sum m_k beta_k as an int tuple of simple-root coordinates."""
    return _record(w, check_datum(w, m)).weight


_Record = namedtuple("_Record", "letters e weight row")


@cache
def _record(w, m):
    """The integers of a checked datum tuple m on the word w, computed
    once and read by canonical and mult with no re-validation:
    letters, the ascending root indices of m (k repeated m_k times);
    e = e(m) = sum_k d_k m_k (m_k - 1)/2 with d_k = (beta_k, beta_k)/2;
    weight = sum_k m_k beta_k as an int tuple; and the d-form row v_m,
    v_m[j] = sum_{i>j} (beta_i, beta_j) m_i + d_j m_j, so that
    d(m, n) = v_m . n (_d).

    e(m) is the exponent in E(m)* = q^e(m) E*_1^m_1 ... E*_N^m_N, where
    E*_k = (1 - q^(beta_k, beta_k)) E_{beta_k} = E(e_k)*.  Proof, from
    Lusztig's product formula f_m = prod_k prod_{s=1..m_k}
    (1 - q^{2 s d_k}): E_{beta_k}^c = [c]_{d_k}! E_{beta_k}^(c), and
    q^{ds} - q^{-ds} = -q^{-ds} (1 - q^{2ds}) gives (1 - q^{2d}) [s]_d =
    q^{d(1-s)} (1 - q^{2ds}), so E*_k^c = q^{-d_k c(c-1)/2} prod_{s=1..c}
    (1 - q^{2 s d_k}) E_{beta_k}^(c); in word order these multiply to
    q^-e(m) f_m E(m) = q^-e(m) E(m)*.
    """
    betas, gram = _root_table(w)
    letters, e = [], 0
    weight, row = [0] * w.datum.rank, [0] * len(m)
    for k, c in enumerate(m):
        if c:
            d = gram[k][k] // 2
            letters += [k + 1] * c
            e += d * c * (c - 1) // 2
            for t, x in enumerate(betas[k]):
                weight[t] += c * x
            row[k] += d * c
            for j in range(k):
                row[j] += gram[k][j] * c
    return _Record(tuple(letters), e, tuple(weight), tuple(row))


def render_datum(m):
    return "[" + ",".join(str(c) for c in m) + "]"


def pbw_monomial(w, m):
    """E(m) = E_{beta_1}^{(m_1)} ... E_{beta_N}^{(m_N)} as a UPlusExpr:
    the WordExpr view of _plain_monomial, one object per checked datum."""
    return _monomial_view(w, check_datum(w, m))


@cache
def _monomial_view(w, m):
    return _plain_monomial(w, m).word_expr(w.datum)


def f_pbw_monomial(w, m):
    """F(m) = F_{beta_1}^{(m_1)} ... F_{beta_N}^{(m_N)}, the mirrored PBW
    monomial with its factors in word order like E(m), read off E(m):
    F(m) = prod_k ((-1)^(ht beta_k - 1) r_k)^(m_k) omega(E(m)), with
    r_k = q^(a_k) the root unit (_root_units) and omega the
    Chevalley involution E_i <-> F_i, K_mu -> K_-mu, so omega(E(m)) is
    E(m) with its words put on the F side.  Root vectors:
    F_{beta_k} = r_k T_{i_1} ... T_{i_{k-1}}(F_{i_k}) is
    (-1)^(ht beta_k - 1) r_k omega(E_{beta_k}).  Take the T_i of
    tests/braid_oracle.py (Jantzen, Lectures on Quantum Groups, 8.14);
    root_vector equals r_k T_{i_1} ... T_{i_{k-1}}(E_{i_k}) there on every
    supported word, by exhaustive comparison.  With these conventions,
    T_i(omega g) = Psi_i(omega T_i g), where Psi_i scales an
    element of weight lambda by (-1)^<alpha_i^v, lambda>
    q^-(alpha_i, lambda) (check it on E_j, F_j and K_mu).  Write
    gamma_j = s_{i_j} ... s_{i_{k-1}} alpha_{i_k}, so gamma_1 = beta_k
    and gamma_k = alpha_{i_k}.  Moving omega out through T_{i_j} costs
    (-1)^<alpha_{i_j}^v, gamma_{j+1}> q^-(alpha_{i_j}, gamma_{j+1}), and
    gamma_j = gamma_{j+1} - <alpha_{i_j}^v, gamma_{j+1}> alpha_{i_j}, so
    the signs telescope to (-1)^(ht beta_k - 1) and the q-powers to
    q^(sum c_i d_i - d_{i_k}) for beta_k = sum c_i alpha_i, with
    d_{i_k} = (beta_k, beta_k)/2: that is r_k.  Monomials: omega is an
    algebra automorphism (Jantzen, Lectures on Quantum Groups, 4.6), so
    it carries E(m) to the product of the omega(E_{beta_k})^{(m_k)}.
    The braid route stays in the tests as an oracle.  The view reads
    the cached plain sum of E(m) (_plain_monomial) and scales it by the
    unit (_f_unit).
    """
    m = check_datum(w, m)
    a, odd = _f_unit(w, m)
    return _plain_monomial(w, m).word_expr(
        w.datum, "F", LaurentPoly.q_power(a, -1 if odd else 1))


def _f_unit(w, m):
    """(a, odd) with F(m) = (-1)^odd q^a omega(E(m)) (f_pbw_monomial)."""
    units = _root_units(w)
    return (sum(c * ak for c, (ak, _) in zip(m, units)),
            sum(c * hk for c, (_, hk) in zip(m, units)) % 2)


@cache
def _plain_monomial(w, m):
    """E(m) for a checked datum tuple m as a PlainSum with its terms in
    lexicographic order: the root vectors concatenated, with
    E_{beta_k}^{(c)} = E_{beta_k}^c / [c]_{beta_k}!, so the denominator
    is prod_k den_k^{m_k} [m_k]!.  It serves the F side too: the plain
    F-words of omega(E(m)) are its words (f_pbw_monomial)."""
    out = PlainSum((0,) * w.datum.rank, {(): ONE})
    for k, c in enumerate(m, start=1):
        for _ in range(c):
            out = out * _plain_root_vector(w, k)
        if c > 1:
            out = PlainSum(out.weight, out.terms, out.den
                           * quantum_factorial(c, _root_norm(w, k)))
    return out


def _root_norm(w, k):
    """(beta_k, beta_k) as an int."""
    return _root_table(w)[1][k - 1][k - 1]


def data_of_weight(w, mu):
    """All Lusztig data m with sum m_k beta_k = mu, sorted ascending
    for rlex (right-lexicographic), as a fresh list."""
    return list(_data_of_weight(w, tuple(mu)))


@cache
def _data_of_weight(w, mu):
    """data_of_weight as a tuple, searched once per (word, weight tuple);
    __wrapped__ is the uncached search (_search_data over every root)."""
    return tuple(_search_data(_root_table(w)[0], mu))


def _search_data(betas, mu):
    """Every tuple m with sum_k m_k betas[k] = mu, sorted rlex.  The
    search picks the last entry first and drops a branch as soon as the
    weight left has a positive coordinate that no root still to pick
    supports."""
    rank = len(mu)
    # unsupported[k]: the coordinates that no betas[0] ... betas[k-1] supports
    unsupported = [tuple(range(rank))]
    for b in betas:
        unsupported.append(tuple(t for t in unsupported[-1] if not b[t]))
    out = []

    def search(k, remaining, acc):
        for t in unsupported[k + 1]:
            if remaining[t]:
                return
        if k < 0:
            out.append(tuple(reversed(acc)))
            return
        b = betas[k]
        top = min((remaining[t] // b[t]) for t in range(rank) if b[t])
        for c in range(top + 1):
            acc.append(c)
            search(k - 1, tuple(r - c * b[t] for t, r in enumerate(remaining)),
                   acc)
            acc.pop()

    search(len(betas) - 1, tuple(mu), [])
    # the search emits ascending in the last coordinate first: sort rlex
    out.sort(key=lambda m: tuple(reversed(m)))
    return out


def _data_inside(w, k, kp):
    """The data of weight beta_k + beta_k' (k < k') supported on
    k+1 ... k'-1, sorted rlex: the search runs over those roots only."""
    betas = _root_table(w)[0]
    mu = tuple(a + b for a, b in zip(betas[k - 1], betas[kp - 1]))
    left, right = (0,) * k, (0,) * (len(betas) - kp + 1)
    return [left + m + right for m in _search_data(betas[k:kp - 1], mu)]


def pairing_em_fn(w, m, n):
    """(E(m), F(n)) through the Hopf pairing, as one reduced RatScalar:
    E(m)'s cached derivation states (_derivations) walked along F(n)'s
    cached words (_f_side).

    The walk gives num/den.  On the diagonal it is compared with
    Lusztig's product formula, 1/(u_m f_m) (_normalizer_pair), by the
    exact identity num u_m f_m = den; when that holds, 1/(u_m f_m) is the
    reduced fraction, as u_m = +-q^a and f_m(0) = 1, and no gcd is taken.
    Any other value is reduced by gcd, so a walk that disagrees with the
    formula is returned as it is."""
    m, n = check_datum(w, m), check_datum(w, n)
    x = _plain_monomial(w, m)
    weight, words, den = _f_side(w, n)
    if x.weight != weight:
        return RatScalar.zero()
    num = _walk(w.datum, _derivations(w, m), words)
    if num.is_zero():
        return RatScalar.zero()
    den = x.den * den
    if m == n:
        f, u = _normalizer_pair(w, m)
        if num * u * f == den:
            ((a, sign),) = u.coeffs.items()
            return RatScalar(LaurentPoly.q_power(-a, sign), f, _reduced=True)
    return RatScalar(num, den)


@cache
def _derivations(w, m):
    """The derivation states D_v E(m) of a checked datum m, as the
    {prefix v: state} dict of qea._walk, starting from {(): E(m)}.  Every
    pairing_em_fn of E(m) fills it in place along the words of its F(n),
    so a prefix that several F(n) of the weight share is derived once."""
    return {(): _plain_monomial(w, m).terms}


@cache
def _f_side(w, n):
    """(weight, words, den) of F(n) for a checked datum n, as every pairing
    against it reads them: the (plain word, numerator) pairs of E(n),
    which are the plain F-words of omega(E(n)) (f_pbw_monomial); and
    den(E(n)) times the denominator of the generator factor of the weight,
    divided by F(n)'s unit +-q^a (_f_unit), so that (x, F(n)) =
    walk / (den(x) den).  The unit goes into den, a shift, once per datum:
    scaling each numerator instead would cost a product per word on the
    first pairing with F(n)."""
    p = _plain_monomial(w, n)
    a, odd = _f_unit(w, n)
    den = (p.den * _weight_factors(w.datum, p.weight)[1]).shift(-a)
    return p.weight, p.terms.items(), -den if odd else den


def _pairing_f(x, w, n, scale, states):
    """scale (x, F(n)) for a PlainSum x of the weight of the checked datum
    n, as the unreduced (num, den) = (scale walk, den(x) den), with the
    words and den of F(n) from _f_side; states holds derivations of x
    (qea._walk)."""
    _, words, den = _f_side(w, n)
    return _walk(w.datum, states, words) * scale, x.den * den


@cache
def _normalizer_pair(w, m):
    """(f_m, u_m) with 1/(E(m), F(m)) = u_m f_m, as LaurentPolys; m is a
    checked datum tuple.

    Lusztig's product formula (Introduction to Quantum Groups, 38.2.3)
    gives f_m = prod_k prod_{s=1..m_k} (1 - q^{s (beta_k, beta_k)}), so
    f_m(0) = 1, and u_m = prod_k u_k^{m_k}, summed as ints, with u_k =
    1/((E_beta, F_beta) (1 - q^c)) = -q^{-c - 3 a_k} for beta = beta_k,
    c = (beta, beta) and i = i_k.  Proof: with r = q^(a_k) (_root_units)
    and E' = T_{i_1} ... T_{i_{k-1}}(E_i), E_beta = r E' (root_vector, by
    its exhaustive equality with the braid chain of tests/braid_oracle.py)
    and F_beta = (-1)^(ht beta - 1) r omega(E_beta) (f_pbw_monomial).  The
    braid automorphisms preserve the form (x, omega(y)) on U^+ (Lusztig,
    38.2.1; Jantzen, Lectures on Quantum Groups, 8.30) up to a sign; with
    the T_i of that oracle (Jantzen, 8.14),
    (E', omega(E')) = (-1)^(ht beta - 1) (E_i, F_i).
    So (E_beta, F_beta) = r^3 (E_i, F_i) = r^3 / (1 - q^-c), as the Weyl
    group keeps c = (alpha_i, alpha_i), and (1 - q^c)/(1 - q^-c) = -q^c.
    The tests check u_k against the pairing.
    """
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


def dual_pbw_normalizer(w, m):
    """f_m with E(m)* = f_m E(m) and f_m(0) = 1, as a RatScalar.

    f_m is the product formula part of 1/(E(m), F(m)) = u_m f_m; with the
    unit u_m = +-q^a on the F side, (E(m)*, u_m F(m)) = 1.
    """
    return _normalizer_view(w, check_datum(w, m))


@cache
def _normalizer_view(w, m):
    """f_m of _normalizer_pair as a RatScalar, one object per checked
    datum; nothing else wraps the pair."""
    return RatScalar.from_laurent(_normalizer_pair(w, m)[0])


def _pbw_coordinate(x, w, m, states):
    """c_m = (x, F(m))/(E(m), F(m)) = (x, F(m)) f_m u_m for a PlainSum x
    of the weight of m, as the unreduced (num, den) of _pairing_f."""
    f, u = _normalizer_pair(w, m)
    return _pairing_f(x, w, m, f * u, states)


def pbw_coordinates(x, w):
    """The expansion x = sum c_m E(m) via c_m = (x, F(m))/(E(m), F(m)),
    as a dict {datum: RatScalar} of the nonzero coordinates.  The data of
    one weight share the derivation states of its plain sum (qea._walk)."""
    coeffs = {}
    for mu, p in plain_sums(x).items():
        states = {(): p.terms}
        for m in _data_of_weight(w, mu):
            c = RatScalar(*_pbw_coordinate(p, w, m, states))
            if not c.is_zero():
                coeffs[m] = c
    return coeffs


# -- the d- and c-forms ------------------------------------------------------

def d_form(w, m, n):
    """d(m, n) = sum_{i>j} <beta_i, beta_j> m_i n_j
    + (1/2) sum_i <beta_i, beta_i> m_i n_i (an integer)."""
    return _d(w, check_datum(w, m), check_datum(w, n))


def _d(w, m, n):
    """d_form of checked data: the row v_m of m's record dotted with n."""
    return sum(map(mul, _record(w, m).row, n))


def c_form(w, n, m):
    """c(n, m) = d(n, m) - d(m, n)."""
    return d_form(w, n, m) - d_form(w, m, n)


# -- orderings ----------------------------------------------------------------

def rlex_less(m, n):
    """Right-lexicographic: compare at the largest index where m, n differ."""
    if len(m) != len(n):
        raise ValueError("data of different lengths")
    for a, b in zip(reversed(m), reversed(n)):
        if a != b:
            return a < b
    return False


def unit_datum(N, k):
    """e_k (1-based) in Z^N."""
    return tuple(1 if t == k - 1 else 0 for t in range(N))


class StraighteningError(ArithmeticError):
    """Raised when the reversed product of two root vectors does not have
    the leading coefficient that the straightening law requires."""


class NonLaurentStraightening(ArithmeticError):
    """A dual straightening coefficient S* is not a Laurent polynomial
    (convention bug)."""


@cache
def straighten_commutator(w, k, kp):
    """The lower-order part S* of the straightening law of the dual root
    vectors E*_k = E(e_k)* = f_{e_k} E_{beta_k} (k < k'), as
    {datum: LaurentPoly}:
    E*_k' E*_k = q^{-(beta_k, beta_k')} (E*_k E*_k' - sum_m S*[m] E(m)*).

    With lead = e_k + e_k', E*_k E*_k' = f_lead E(lead), so only the
    reversed product x = E_{beta_k'} E_{beta_k}, the concatenated plain
    sums of the two root vectors, is paired.  Its PBW coefficient on lead
    must be q^{-(beta_k, beta_k')}, else StraighteningError.  By the
    convexity of Levendorskii-Soibelman (Comm. Math. Phys. 139, 1991) the
    rest of its support lies strictly between k and k', so it is paired
    only against lead and the data of that weight supported inside
    (k, k'), which _data_inside finds among those roots alone.  Scaling
    x = sum_m c_m E(m) by f_lead turns each E(m) into E(m)*/f_m, and
    c_m = (x, F(m)) f_m u_m, so f_m cancels:
    S*[m] = -q^{(beta_k, beta_k')} f_lead (x, F(m)) u_m.  Each walk gives
    its value as an unreduced fraction num/den (_pairing_f), so the lead
    is checked as num = q^-b den and S*[m] is the exact quotient of num
    by den, as S* lies in Lusztig's integral form (Introduction to
    Quantum Groups, ch. 41); raises NonLaurentStraightening if that
    division is not exact in Z[q, q^-1].
    """
    if not 1 <= k < kp <= len(w.word):
        raise ValueError("need 1 <= k < k' <= N, got (%d, %d)" % (k, kp))
    N = len(w.word)
    lead = tuple(1 if t in (k - 1, kp - 1) else 0 for t in range(N))
    b = _root_table(w)[1][k - 1][kp - 1]
    x = _plain_root_vector(w, kp) * _plain_root_vector(w, k)
    states = {(): x.terms}
    num, den = _pbw_coordinate(x, w, lead, states)
    if num != den.shift(-b):
        raise StraighteningError(
            "coefficient of %s in E_%d E_%d of %s is %s, not q^%d"
            % (render_datum(lead), kp, k, w.render(),
               RatScalar(num, den).render(), -b))
    scale = -_normalizer_pair(w, lead)[0].shift(b)
    out = {}
    for m in _data_inside(w, k, kp):
        num, den = _pairing_f(x, w, m, scale * _normalizer_pair(w, m)[1],
                              states)
        try:
            c = _exact_divide(num, den)
        except InexactDivision:
            raise NonLaurentStraightening(
                "S* of E*_%d E*_%d on %s has %s at %s"
                % (kp, k, w.render(), RatScalar(num, den).render(),
                   render_datum(m))) from None
        if not c.is_zero():
            out[m] = c
    return out


# -- products in PBW coordinates ---------------------------------------------

def pbw_product(w, ca, cb):
    """The product of two elements given by PBW coordinate dicts, again as
    a PBW coordinate dict: canonical's dual-PBW product, through f_m and
    back, with no pairing evaluation at the product weight."""
    # canonical builds on pbw, so it is imported here, not at module level
    from .canonical import dual_product, dual_to_pbw_coords, pbw_to_dual_coords
    return dual_to_pbw_coords(w, dual_product(
        w, pbw_to_dual_coords(w, ca), pbw_to_dual_coords(w, cb)))


@cache
def _ext_downsets(w, mu):
    """Map each datum of weight mu to the frozenset of data below it in
    the Ext order: the reachability closure of the covering moves."""
    N = len(w.word)
    nodes = data_of_weight(w, mu)
    # covering moves: replace a pair (e_k, e_k') inside n by any
    # element of the straightening support
    succ = {n: set() for n in nodes}
    for n in nodes:
        occupied = [k for k in range(1, N + 1) if n[k - 1] > 0]
        for ai, k in enumerate(occupied):
            for kp in occupied[ai + 1:]:
                rem = list(n)
                rem[k - 1] -= 1
                rem[kp - 1] -= 1
                for s in straighten_commutator(w, k, kp):
                    succ[n].add(tuple(r + sc for r, sc in zip(rem, s)))
    down = {}

    def close(n):
        if n in down:
            return down[n]
        acc = {n}
        for t in succ[n]:
            acc |= close(t)
        down[n] = frozenset(acc)
        return down[n]

    for n in nodes:
        close(n)
    return down


class ExtOrder:
    """The coarser partial order generated by straightening supports,
    extended additively, computed per weight as a reachability closure."""

    def __init__(self, w):
        self.w = w

    def leq(self, m, n):
        """m is below n (reachable by straightening moves), same weight."""
        m = tuple(m)
        n = tuple(n)
        if m == n:
            return True
        mu = weight_tuple(self.w, n)
        if weight_tuple(self.w, m) != mu:
            return False
        return m in _ext_downsets(self.w, mu)[n]


def ext_order(w):
    return ExtOrder(w)
