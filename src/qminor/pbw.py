"""Braid automorphisms, PBW root vectors and monomials, PBW coordinates,
the d- and c-forms, and the two orderings on Lusztig data.

A Lusztig datum is a vector m in Z_{>=0}^N tied to a reduced word of
w_0; the PBW monomial is E(m) = E_{beta_1}^{(m_1)} ... E_{beta_N}^{(m_N)}
with root vectors E_{beta_k} = T_{i_1} ... T_{i_{k-1}}(E_{i_k}).
Coordinates of arbitrary elements are computed through the Hopf pairing
against the mirrored F-side monomials F(m) (biorthogonality), never by
word rewriting.  F(m) is E(m) pushed through the Chevalley involution
omega (E_i <-> F_i, K_mu -> K_-mu) and scaled by a unit +-q^a, since
T_i omega = Psi_i omega T_i for a grading scalar Psi_i (see
f_pbw_monomial), so the braid automorphisms and the product of root
vectors run on the E side only.  The dual PBW normalizers f_m come from
Lusztig's product formula for (E(m), F(m)), and their units u_m in
closed form from the root units.  The straightening law of two dual
root vectors E*_k = E(e_k)* is paired out once per pair, in dual-PBW
coordinates over Z[q, q^-1]; canonical builds every product on it.
"""

from functools import cache

from .scalars import LaurentPoly, RatScalar, ONE, quantum_factorial
from .rootdata import form, reflect
from .qea import WordExpr, TriExpr, tri_mul, pairing


# -- braid automorphisms -------------------------------------------------

@cache
def _braid_gen(datum, i, kind, j, mult):
    """T_i applied to E_j^{(mult)}, F_j^{(mult)} or (kind 'K') K_lambda
    with lambda given by the coordinate tuple j.

    For i != j and r = -a_ij,
    T_i(E_j) = sum_s (-1)^(r-s) q_i^(s-r) E_i^(s) E_j E_i^(r-s) and
    T_i(F_j) = sum_s (-1)^(r-s) q_i^(r-s) F_i^(r-s) F_j F_i^(s).
    """
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


# -- root vectors ----------------------------------------------------------

@cache
def _root_tri(datum, word):
    """T_{i_1} ... T_{i_{k-1}}(E_{i_k}) in U_q(g), where
    word = (i_1, ..., i_k).  Shared suffix recursion.

    The cache is keyed by the word that _root_word shortens, not by the
    full prefix: root_vector passes word[:r-1] + (j,), where the tail
    T_{i_r} ... T_{i_{k-1}}(E_{i_k}) of the chain is E_j.  That tail is
    itself the braid image of a root vector of the reduced word
    (i_r, ..., i_k), so it has no F or K part (root_vector raises
    NotInUqn otherwise).  Its weight is alpha_j, and the only word of
    weight alpha_j is (j,), so it is c E_j, and the lemma in _root_word
    gives c = 1.  So it is structurally TriExpr.e_gen(datum, j), the
    T_{i_1} ... T_{i_{r-1}} that follow see the same input, and the
    shortened key gives a TriExpr equal term for term to the full
    prefix's.
    """
    if len(word) > 1:
        return braid_T(word[0], _root_tri(datum, word[1:]))
    return TriExpr.e_gen(datum, word[0])


def _root_word(datum, word):
    """The shortest key for _root_tri that gives the root vector of
    word = (i_1, ..., i_k).

    Follow gamma_k = alpha_{i_k}, gamma_r = s_{i_r}(gamma_{r+1}) on int
    root coordinates.  At the smallest r where gamma_r is a simple root
    alpha_j, return word[:r-1] + (j,).  Lemma: if v is a Weyl element
    with v(alpha_i) = alpha_j, then T_v(E_i) = E_j, with T_v taken along
    any reduced expression of v (Jantzen, Lectures on Quantum Groups,
    8.20; Lusztig, Introduction to Quantum Groups, ch. 39).  A run of
    letters of a reduced word is reduced, so
    T_{i_r} ... T_{i_{k-1}}(E_{i_k}) = E_j.
    """
    gamma = datum.alpha(word[-1])
    cut, j = len(word) - 1, word[-1]
    for r in range(len(word) - 2, -1, -1):
        gamma = reflect(datum, word[r], gamma)
        if sum(gamma) == 1:     # a positive root of height 1
            cut, j = r, 1 + gamma.index(1)
    return word[:cut] + (j,)


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
    the normalizing unit q^(a_k) of E_{beta_k}, and ht beta_k - 1 the
    sign exponent of F_{beta_k} in f_pbw_monomial.

    The unit is trivial on simple roots and makes the dual PBW basis
    compatible with the twisted bar involution (unit diagonal) while
    keeping every dual normalizer f_m in 1 + qZ[q].
    """
    betas, gram = _root_table(w)
    return tuple((sum(c * d for c, d in zip(beta, w.datum.d))
                  - gram[k][k] // 2, sum(beta) - 1)
                 for k, beta in enumerate(betas))


def root_vector(w, k):
    """E_{beta_k} for the reduced word w, as a UPlusExpr.

    The braid chain T_{i_1} ... T_{i_{k-1}}(E_{i_k}) starts at its last
    simple root: if gamma_r = s_{i_r} ... s_{i_{k-1}}(alpha_{i_k}) is a
    simple root alpha_j, then T_{i_r} ... T_{i_{k-1}}(E_{i_k}) = E_j
    (Jantzen, Lectures on Quantum Groups, 8.20; Lusztig, Introduction to
    Quantum Groups, ch. 39).  _root_word finds the smallest such r, and
    _root_tri evaluates only T_{i_1} ... T_{i_{r-1}}(E_j), which is term
    for term the TriExpr of the full chain (see _root_tri).

    Raises NotInUqn if the braid image fails to land in U_q(n): that
    signals a convention bug, not a user error.
    """
    x = _root_tri(w.datum, _root_word(w.datum, w.word[:k])).project_uplus()
    return x.scale(RatScalar.q_power(_root_units(w)[k - 1][0]))


# -- PBW monomials and coordinates ------------------------------------------

def check_datum(w, m):
    m = tuple(int(c) for c in m)
    if len(m) != len(w.word):
        raise ValueError("datum length %d != word length %d"
                         % (len(m), len(w.word)))
    if any(c < 0 for c in m):
        raise ValueError("negative entry in Lusztig datum %s" % (m,))
    return m


def weight_tuple(w, m):
    """sum m_k beta_k as an int tuple of simple-root coordinates."""
    m = check_datum(w, m)
    out = [0] * w.datum.rank
    for c, b in zip(m, _root_table(w)[0]):
        if c:
            for t, x in enumerate(b):
                out[t] += c * x
    return tuple(out)


def render_datum(m):
    return "[" + ",".join(str(c) for c in m) + "]"


def pbw_monomial(w, m):
    """E(m) = E_{beta_1}^{(m_1)} ... E_{beta_N}^{(m_N)} as a UPlusExpr."""
    return _monomial(w, check_datum(w, m))


def f_pbw_monomial(w, m):
    """F(m) = F_{beta_1}^{(m_1)} ... F_{beta_N}^{(m_N)}, the mirrored PBW
    monomial with its factors in word order like E(m), read off E(m):
    F(m) = prod_k ((-1)^(ht beta_k - 1) r_k)^(m_k) omega(E(m)), with
    r_k = q^(a_k) the root unit (_root_units) and omega the
    Chevalley involution E_i <-> F_i, K_mu -> K_-mu, so omega(E(m)) is
    E(m) with its words put on the F side.  Root vectors:
    F_{beta_k} = r_k T_{i_1} ... T_{i_{k-1}}(F_{i_k}) is
    (-1)^(ht beta_k - 1) r_k omega(E_{beta_k}).  With the conventions of
    _braid_gen, T_i(omega g) = Psi_i(omega T_i g), where Psi_i scales an
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
    omega maps U^+ onto U^-, so the NotInUqn check of root_vector covers
    this side too.  The braid route stays in the tests as an oracle.
    """
    m = check_datum(w, m)
    a = sum(c * ak for c, (ak, _) in zip(m, _root_units(w)))
    odd = sum(c * hk for c, (_, hk) in zip(m, _root_units(w))) % 2
    return WordExpr(w.datum, {word: -c.shift(a) if odd else c.shift(a)
                              for word, c in _monomial(w, m).terms.items()},
                    "F")


@cache
def _monomial(w, m):
    """E(m) for a checked datum tuple m, one divided power at a time."""
    out = WordExpr.one(w.datum)
    for k, c in enumerate(m, start=1):
        if c:
            power = root_vector(w, k) ** c
            if c > 1:
                power = power.scale(
                    RatScalar(ONE, quantum_factorial(c, _root_norm(w, k))))
            out = out * power
    return out


def _root_norm(w, k):
    """(beta_k, beta_k) as an int."""
    return _root_table(w)[1][k - 1][k - 1]


def data_of_weight(w, mu):
    """All Lusztig data m with sum m_k beta_k = mu, sorted ascending
    for rlex (right-lexicographic), as a fresh list."""
    return list(_data_of_weight(w, tuple(mu)))


@cache
def _unsupported(w):
    """unsupported[k]: the coordinates that no beta_1 ... beta_k supports."""
    out = [tuple(range(w.datum.rank))]
    for b in _root_table(w)[0]:
        out.append(tuple(t for t in out[-1] if not b[t]))
    return tuple(out)


@cache
def _data_of_weight(w, mu):
    """data_of_weight as a tuple, searched once per (word, weight tuple);
    __wrapped__ is the uncached search.  The search picks m_N, ..., m_1
    and drops a branch as soon as the weight left has a positive
    coordinate that no beta_1 ... beta_k still to pick supports."""
    betas = _root_table(w)[0]
    unsupported = _unsupported(w)
    rank = len(mu)
    N = len(betas)
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

    search(N - 1, mu, [])
    # the search emits ascending in the last coordinate first: sort rlex
    out.sort(key=lambda m: tuple(reversed(m)))
    return tuple(out)


def pairing_em_fn(w, m, n):
    """(E(m), F(n)) through the Hopf pairing."""
    return pairing(pbw_monomial(w, m), f_pbw_monomial(w, n))


@cache
def _normalizer_pair(w, m):
    """(f_m, u_m) with 1/(E(m), F(m)) = u_m f_m; m is a checked datum tuple.

    Lusztig's product formula (Introduction to Quantum Groups, 38.2.3)
    gives f_m = prod_k prod_{s=1..m_k} (1 - q^{s (beta_k, beta_k)}), so
    f_m(0) = 1, and u_m = prod_k u_k^{m_k}, summed as ints, with u_k =
    1/((E_beta, F_beta) (1 - q^c)) = -q^{-c - 3 a_k} for beta = beta_k,
    c = (beta, beta) and i = i_k.  Proof: with r = q^(a_k) (_root_units)
    and E' = T_{i_1} ... T_{i_{k-1}}(E_i), E_beta = r E' (root_vector)
    and F_beta = (-1)^(ht beta - 1) r omega(E_beta) (f_pbw_monomial).  The
    braid automorphisms preserve the form (x, omega(y)) on U^+ (Lusztig,
    38.2.1; Jantzen, Lectures on Quantum Groups, 8.30) up to a sign; with
    the signs of _braid_gen, (E', omega(E')) = (-1)^(ht beta - 1) (E_i, F_i).
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
    return (RatScalar.from_laurent(f),
            RatScalar.q_power(exp, -1 if count % 2 else 1))


def dual_pbw_normalizer(w, m):
    """f_m with E(m)* = f_m E(m) and f_m(0) = 1.

    f_m is the product formula part of 1/(E(m), F(m)) = u_m f_m; with the
    unit u_m = +-q^a on the F side, (E(m)*, u_m F(m)) = 1.
    """
    return _normalizer_pair(w, check_datum(w, m))[0]


def _pbw_coordinate(x, w, m):
    """c_m = (x, F(m))/(E(m), F(m)) for x homogeneous of the weight of m."""
    f, u = _normalizer_pair(w, m)
    return pairing(x, f_pbw_monomial(w, m)) * f * u


def _dual_coordinate(x, w, m):
    """c_m / f_m = (x, F(m)) u_m, the coordinate of x on E(m)* = f_m E(m)."""
    return pairing(x, f_pbw_monomial(w, m)) * _normalizer_pair(w, m)[1]


def pbw_coordinates(x, w):
    """The expansion x = sum c_m E(m) via c_m = (x, F(m))/(E(m), F(m)),
    as a dict {datum: RatScalar} of the nonzero coordinates."""
    coeffs = {}
    for mu, comp in x.homogeneous_components().items():
        for m in _data_of_weight(w, mu):
            c = _pbw_coordinate(comp, w, m)
            if not c.is_zero():
                coeffs[m] = c
    return coeffs


# -- the d- and c-forms ------------------------------------------------------

def d_form(w, m, n):
    """d(m, n) = sum_{i>j} <beta_i, beta_j> m_i n_j
    + (1/2) sum_i <beta_i, beta_i> m_i n_i (an integer)."""
    m = check_datum(w, m)
    n = check_datum(w, n)
    gram = _root_table(w)[1]
    total = 0
    for i in range(len(m)):
        if not m[i]:
            continue
        for j in range(i):
            if n[j]:
                total += gram[i][j] * m[i] * n[j]
        if n[i]:
            total += gram[i][i] * m[i] * n[i] // 2
    return total


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
    reversed product x = E_{beta_k'} E_{beta_k} is paired.  Its PBW
    coefficient on lead must be q^{-(beta_k, beta_k')}, else
    StraighteningError.  By the convexity of Levendorskii-Soibelman
    (Comm. Math. Phys. 139, 1991) the rest of its support lies strictly
    between k and k', so it is paired only against lead and the data of
    that weight supported inside (k, k').  Scaling x = sum_m c_m E(m) by
    f_lead turns each E(m) into E(m)*/f_m, and c_m = (x, F(m)) f_m u_m,
    so f_m cancels: S*[m] = -q^{(beta_k, beta_k')} f_lead (x, F(m)) u_m
    (_dual_coordinate).  Raises NonLaurentStraightening if a coefficient
    is not in Z[q, q^-1].
    """
    if not 1 <= k < kp <= len(w.word):
        raise ValueError("need 1 <= k < k' <= N, got (%d, %d)" % (k, kp))
    N = len(w.word)
    lead = tuple(1 if t in (k - 1, kp - 1) else 0 for t in range(N))
    b = _root_table(w)[1][k - 1][kp - 1]
    x = root_vector(w, kp) * root_vector(w, k)
    lead_b = _pbw_coordinate(x, w, lead)
    if lead_b != RatScalar.q_power(-b):
        raise StraighteningError(
            "coefficient of %s in E_%d E_%d of %s is %s, not q^%d"
            % (render_datum(lead), kp, k, w.render(), lead_b.render(), -b))
    scale = _normalizer_pair(w, lead)[0] * RatScalar.q_power(b, -1)
    out = {}
    for m in _data_of_weight(w, weight_tuple(w, lead)):
        if not any(m[:k]) and not any(m[kp - 1:]):
            c = scale * _dual_coordinate(x, w, m)
            if not c.is_laurent():
                raise NonLaurentStraightening(
                    "S* of E*_%d E*_%d on %s has %s at %s"
                    % (kp, k, w.render(), c.render(), render_datum(m)))
            if not c.is_zero():
                out[m] = c.as_laurent()
    return out


# -- dual letters, and products in PBW coordinates --------------------------

def _letters_of_datum(m):
    """Expand a Lusztig datum to the ascending sequence of its root indices."""
    letters = []
    for k, c in enumerate(m, start=1):
        letters.extend([k] * c)
    return tuple(letters)


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
