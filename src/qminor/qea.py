"""Words and expressions in U_q(n), triangular elements of U_q(g),
the Hopf pairing, and canonical forms.

Elements of U_q(n) are read and written as WordExprs, Q(q)-combinations
of divided-power words.  The PBW machinery and the pairing compute with
PlainSums instead: plain words with numerators in Z[q, q^-1] over one
Laurent denominator, multiplied by concatenating words and never reduced
term by term.  pbw builds its root vectors and PBW monomials as
PlainSums, and the Hopf pairing turns each side into PlainSums and walks
q-derivations D_b over them.  Equality is decided by the vector of
pairings against all plain F-words of the weight (the pairing is
nondegenerate), computed in the same way, never by rewriting modulo the
quantum Serre relations, so no Groebner machinery appears.

The Hopf pairing follows one fixed convention, stated where it is used
(the Hopf pairing section and pairing).  The memos are
functools.cache wrappers that live as long as the process.
"""

from functools import cache

from .scalars import (LaurentPoly, RatScalar, ZERO, ONE, add_term,
                      join_signed, laurent_gcd, quantum_factorial,
                      quantum_binomial, _exact_divide)
from .rootdata import form


class NotInUqn(ArithmeticError):
    """A TriExpr expected to lie in U_q(n) has surviving F or K parts
    (a braid convention bug, not a user error)."""


# -- divided-power words ------------------------------------------------
#
# A word is a tuple of (vertex, multiplicity) pairs with multiplicities
# >= 1 and no two consecutive equal vertices; it denotes the product of
# divided powers E_{i_1}^{(k_1)} ... E_{i_r}^{(k_r)} (same shape on the
# F side).  A plain word is a tuple of vertices (all multiplicities 1).

def canonicalize_word(datum, pairs):
    """Merge adjacent equal-vertex divided powers.

    Returns (word, factor): E_i^{(a)}E_i^{(b)} = [a+b choose a]_{q_i}
    E_i^{(a+b)}, so the factor is a product of Gaussian binomials.
    """
    word = []
    factor = ONE
    for i, k in pairs:
        if k == 0:
            continue
        if k < 0:
            raise ValueError("negative divided power %d" % k)
        if word and word[-1][0] == i:
            a = word[-1][1]
            factor = factor * quantum_binomial(a + k, k, datum.root_norm(i))
            word[-1] = (i, a + k)
        else:
            word.append((i, k))
    return tuple(word), factor


def word_weight(datum, word):
    """The weight of a divided-power word as an int tuple."""
    coords = [0] * datum.rank
    for i, k in word:
        coords[i - 1] += k
    return tuple(coords)


def word_to_plain(word):
    """Expand divided powers to a plain letter sequence (no scalar)."""
    out = []
    for i, k in word:
        out.extend([i] * k)
    return tuple(out)


def plain_factor(datum, word):
    """The scalar relating a word to its plain expansion:
    E_{i}^{(k)} = (1/[k]_{q_i}!) E_i^k, multiplied over the word."""
    f = ONE
    for i, k in word:
        if k > 1:
            f = f * quantum_factorial(k, datum.root_norm(i))
    return RatScalar(ONE, f)


def plain_to_pairs(plain):
    return tuple((i, 1) for i in plain)


def _word_factors(letter, word):
    """The factors of a divided-power word as strings, e.g. ['E1', 'E2^(2)']."""
    return ["%s%d" % (letter, i) if k == 1 else "%s%d^(%d)" % (letter, i, k)
            for i, k in word]


def _render_sum(items):
    """Render the sum of c*body over (factor strings, RatScalar c) items;
    an empty factor list is the unit 1, and no items render as '0'."""
    parts = []
    for factors, c in items:
        body = "*".join(factors) or "1"
        cs = c.render()
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append("-" + body)
        else:
            if "+" in cs or " - " in cs or "/" in cs:
                cs = "(" + cs + ")"
            parts.append(cs + "*" + body if factors else cs)
    return join_signed(parts) if parts else "0"


# -- expressions in U_q(n) (and its F-side mirror) ----------------------

class WordExpr:
    """A finite Q(q)-combination of divided-power words on one side."""

    __slots__ = ("datum", "side", "terms")

    def __init__(self, datum, terms=None, side="E"):
        if side not in ("E", "F"):
            raise ValueError("side must be 'E' or 'F'")
        self.datum = datum
        self.side = side
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, RatScalar):
                    c = RatScalar(c)
                if not c.is_zero():
                    self.terms[w] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, datum, side="E"):
        return cls(datum, {}, side)

    @classmethod
    def one(cls, datum, side="E"):
        return cls(datum, {(): RatScalar.one()}, side)

    @classmethod
    def generator(cls, datum, i, k=1, side="E"):
        datum._check_index(i)
        if k < 1:
            raise ValueError("divided power needs k >= 1")
        return cls(datum, {((i, k),): RatScalar.one()}, side)

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.datum is not other.datum or self.side != other.side:
            raise ValueError("incompatible expressions")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            add_term(terms, w, c)
        return WordExpr(self.datum, terms, self.side)

    def __neg__(self):
        return WordExpr(self.datum, {w: -c for w, c in self.terms.items()},
                        self.side)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, RatScalar):
            c = RatScalar(c)
        if c.is_zero():
            return WordExpr.zero(self.datum, self.side)
        return WordExpr(self.datum,
                        {w: cc * c for w, cc in self.terms.items()},
                        self.side)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatScalar)):
            return self.scale(other)
        self._check_compatible(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w, f = canonicalize_word(self.datum, w1 + w2)
                add_term(terms, w, c1 * c2 * f)
        return WordExpr(self.datum, terms, self.side)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a WordExpr")
        res = WordExpr.one(self.datum, self.side)
        for _ in range(n):
            res = res * self
        return res

    def __eq__(self, other):
        """Structural equality of stored terms (see canonical_form for
        semantic equality in U_q(n))."""
        if not isinstance(other, WordExpr):
            return NotImplemented
        return (self.datum is other.datum and self.side == other.side
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.datum.label, self.side,
                     frozenset(self.terms.items())))

    # -- grading ----------------------------------------------------------

    def homogeneous_components(self):
        """Map root-coordinate tuple -> homogeneous WordExpr."""
        comps = {}
        for w, c in self.terms.items():
            mu = word_weight(self.datum, w)
            comps.setdefault(mu, {})[w] = c
        return {mu: WordExpr(self.datum, t, self.side)
                for mu, t in comps.items()}

    def is_homogeneous(self):
        return len(self.homogeneous_components()) <= 1

    def weight(self):
        """The weight of a homogeneous expression as an int tuple; the
        zero expression has weight 0."""
        comps = self.homogeneous_components()
        if len(comps) > 1:
            raise ValueError("expression is not homogeneous")
        if not comps:
            return (0,) * self.datum.rank
        (mu,) = comps
        return mu

    # -- symmetries -------------------------------------------------------

    def eta(self):
        """Bar-conjugate every coefficient; words are fixed (divided
        powers are eta-fixed since [k]! is bar-symmetric)."""
        return WordExpr(self.datum,
                        {w: c.bar() for w, c in self.terms.items()},
                        self.side)

    def sigma(self):
        """Reverse every word; coefficients are fixed."""
        return WordExpr(self.datum,
                        {tuple(reversed(w)): c
                         for w, c in self.terms.items()},
                        self.side)

    def sigma_eta(self):
        return self.sigma().eta()

    # -- rendering ----------------------------------------------------

    def render(self):
        return _render_sum((_word_factors(self.side, w), self.terms[w])
                           for w in sorted(self.terms))

    def __repr__(self):
        return "WordExpr[%s](%s)" % (self.side, self.render())


UPlusExpr = WordExpr


def sigma_eta(x):
    return x.sigma_eta()


def serre_element(datum, i, j):
    """The quantum Serre element
    sum_s (-1)^s E_i^{(s)} E_j E_i^{(1 - a_ij - s)}, which is 0 in U_q(n)."""
    a = datum.cartan[i - 1][j - 1]
    if i == j or a == 0:
        raise ValueError("Serre element needs adjacent i != j")
    n = 1 - a
    total = WordExpr.zero(datum)
    ej = WordExpr.generator(datum, j)
    for s in range(n + 1):
        term = WordExpr.one(datum)
        if s:
            term = term * WordExpr.generator(datum, i, s)
        term = term * ej
        if n - s:
            term = term * WordExpr.generator(datum, i, n - s)
        if s % 2:
            term = -term
        total = total + term
    return total


# -- triangular expressions in U_q(g) -----------------------------------

def _wt_vec(datum, plain):
    wt = [0] * datum.rank
    for i in plain:
        wt[i - 1] += 1
    return tuple(wt)


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TriExpr:
    """An element of U_q(g) in normal order: a Q(q)-combination of
    F-word * K_lambda * E-word, keyed (fword, kvec, eword)."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(c, RatScalar):
                    c = RatScalar(c)
                if not c.is_zero():
                    self.terms[key] = c

    @classmethod
    def zero(cls, datum):
        return cls(datum, {})

    @classmethod
    def one(cls, datum):
        zk = (0,) * datum.rank
        return cls(datum, {((), zk, ()): RatScalar.one()})

    @classmethod
    def e_gen(cls, datum, i, k=1):
        zk = (0,) * datum.rank
        return cls(datum, {((), zk, ((i, k),)): RatScalar.one()})

    @classmethod
    def f_gen(cls, datum, i, k=1):
        zk = (0,) * datum.rank
        return cls(datum, {(((i, k),), zk, ()): RatScalar.one()})

    @classmethod
    def k_elt(cls, datum, kvec):
        kvec = tuple(int(c) for c in kvec)
        if len(kvec) != datum.rank:
            raise ValueError("kvec has wrong length")
        return cls(datum, {((), kvec, ()): RatScalar.one()})

    @classmethod
    def from_word_expr(cls, x):
        zk = (0,) * x.datum.rank
        if x.side == "E":
            return cls(x.datum, {((), zk, w): c for w, c in x.terms.items()})
        return cls(x.datum, {(w, zk, ()): c for w, c in x.terms.items()})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return TriExpr(self.datum, terms)

    def __neg__(self):
        return TriExpr(self.datum, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, RatScalar):
            c = RatScalar(c)
        if c.is_zero():
            return TriExpr.zero(self.datum)
        return TriExpr(self.datum,
                       {k: cc * c for k, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatScalar)):
            return self.scale(other)
        return tri_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatScalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TriExpr):
            return NotImplemented
        return self.datum is other.datum and self.terms == other.terms

    def __hash__(self):
        return hash((self.datum.label, frozenset(self.terms.items())))

    def project_uplus(self):
        """The expression as a UPlusExpr; raises NotInUqn if any term
        has an F part or a nontrivial K part."""
        zk = (0,) * self.datum.rank
        terms = {}
        for (f, k, e), c in self.terms.items():
            if f or k != zk:
                raise NotInUqn("term %r has F/K content" % ((f, k, e),))
            terms[e] = c
        return WordExpr(self.datum, terms, "E")

    def render(self):
        items = []
        for key in sorted(self.terms):
            f, k, e = key
            factors = _word_factors("F", f)
            if any(k):
                lam = "+".join(("%d*a%d" % (c_, i + 1)) if c_ != 1 else "a%d" % (i + 1)
                               for i, c_ in enumerate(k) if c_)
                factors.append("K[%s]" % lam)
            items.append((factors + _word_factors("E", e), self.terms[key]))
        return _render_sum(items)

    def __repr__(self):
        return "TriExpr(%s)" % self.render()


# -- normal ordering (E past F) -----------------------------------------

@cache
def _push_f(datum, eplain, b):
    """Rewrite (plain E-word) * F_b in normal order.

    Returns a tuple of (fplain, kvec, eplain, RatScalar) terms, using
    E_i F_j = F_j E_i + delta_ij (K_i - K_-i)/(q_i - q_i^{-1}).
    """
    zk = (0,) * datum.rank
    if not eplain:
        return (((b,), zk, (), RatScalar.one()),)
    a = eplain[-1]
    head = eplain[:-1]
    terms = []
    for f, k, h, c in _push_f(datum, head, b):
        terms.append((f, k, h + (a,), c))
    if a == b:
        d = datum.d[a - 1]
        denom = LaurentPoly({d: 1, -d: -1})  # q_a - q_a^{-1}
        pair = form(datum, datum.alpha(a), _wt_vec(datum, head))
        # head * K_{+-alpha_a} = q^{-+<alpha_a, wt(head)>} K_{+-alpha_a} * head
        terms.append(((), datum.alpha(a), head,
                      RatScalar(LaurentPoly.q_power(-pair), denom)))
        terms.append(((), datum.alpha(a, -1), head,
                      RatScalar(LaurentPoly.q_power(pair, -1), denom)))
    return tuple(terms)


@cache
def _normal_order(datum, eplain, fplain):
    """(plain E-word) * (plain F-word) in normal order F * K * E.

    Returns a tuple of (fplain, kvec, eplain, RatScalar) terms.
    """
    zk = (0,) * datum.rank
    acc = {((), zk, eplain): RatScalar.one()}
    for b in fplain:
        nxt = {}
        for (f, k, h), c in acc.items():
            for f2, k2, h2, c2 in _push_f(datum, h, b):
                # move K_k right past the new F letters
                c3 = c * c2 * RatScalar.q_power(
                    -form(datum, k, _wt_vec(datum, f2)))
                add_term(nxt, (f + f2, _vec_add(k, k2), h2), c3)
        acc = nxt
    return tuple((f, k, h, c) for (f, k, h), c in acc.items())


def tri_mul(x, y):
    """The product in U_q(g), rewritten to normal order F * K * E.

    The divided-power factors of e1 and f2 join the coefficients once
    per pair of terms.  Per normal-order term, c joins them in one reduced
    product; the K-commutation q-power is a shift, with no reduction;
    the merge binomials cost a reduction only when not 1; and the first
    term at a key is stored as it is.
    """
    if x.datum is not y.datum:
        raise ValueError("TriExprs over different Cartan data")
    datum = x.datum
    out = {}
    for (f1, k1, e1), c1 in x.terms.items():
        pe1 = word_to_plain(e1)
        c1 = c1 * plain_factor(datum, e1)
        for (f2, k2, e2), c2 in y.terms.items():
            pf2 = word_to_plain(f2)
            base = c1 * c2 * plain_factor(datum, f2)
            for fp, kp, ep, c in _normal_order(datum, pe1, pf2):
                # K_{k1} right past fp, then ep right past K_{k2}
                shift = (-form(datum, k1, _wt_vec(datum, fp))
                         - form(datum, k2, _wt_vec(datum, ep)))
                fw, ff = canonicalize_word(datum, f1 + plain_to_pairs(fp))
                ew, ef = canonicalize_word(datum, plain_to_pairs(ep) + e2)
                coeff = (base * c).shift(shift)
                binom = ff * ef
                if not binom.is_one():
                    coeff = coeff * RatScalar.from_laurent(binom)
                add_term(out, (fw, _vec_add(_vec_add(k1, kp), k2), ew),
                         coeff)
    return TriExpr(datum, out)


# -- the Hopf pairing ----------------------------------------------------
#
# Coproduct: Delta(E_i) = E_i x 1 + K_i x E_i,
# Delta(F_i) = F_i x K_-i + 1 x F_i.  For plain words u, v of one weight,
# (E_u, F_v) = prod_a (E_a, F_a) core(u, v), with core((), ()) = 1 and
# core(u, b v') = core(D_b u, v') for the q-derivation
#   D_b(u) = sum_{t: u_t = b} q^-(sum_{r<t} (alpha_{u_r}, alpha_b)) u^(t),
# u^(t) being u without its letter t (Lusztig, Introduction to Quantum
# Groups, 1.2.13), and (E_a, F_a) = 1/(1 - q_a^-2).  D_b is linear, so it
# runs over a whole plain-word sum.

class PlainSum:
    """A homogeneous element (1/den) sum_u terms[u] X_u of the free algebra
    on the letters of one side: X_u is the plain word u (E_u or F_u, every
    letter to the first power), terms[u] a nonzero Laurent polynomial and
    den one Laurent denominator, with no reduction between them.

    The words of one weight have one length, so concatenation is injective
    on pairs of words: a product merges no two terms, and the product of
    two sums with their terms in lexicographic order has its terms in
    lexicographic order.
    """

    __slots__ = ("weight", "terms", "den")

    def __init__(self, weight, terms, den=ONE):
        self.weight = weight
        self.terms = terms
        self.den = den

    def __mul__(self, other):
        return PlainSum(_vec_add(self.weight, other.weight),
                        {u + v: a * b for u, a in self.terms.items()
                         for v, b in other.terms.items()},
                        self.den * other.den)

    def word_expr(self, datum, side="E", unit=ONE):
        """unit times the sum as a WordExpr of divided-power words, term
        for term and in term order, with one RatScalar per term."""
        terms = {}
        for u, c in self.terms.items():
            word, factor = canonicalize_word(datum, plain_to_pairs(u))
            terms[word] = RatScalar(c * factor * unit, self.den)
        return WordExpr(datum, terms, side)


@cache
def _plain_form(datum, word):
    """(plain word, weight mu, [mu]!/prod_j [k_j]_{q_{i_j}}!) for a
    divided-power word E_{i_1}^{(k_1)} ..., [mu]! = prod_i [mu_i]_{q_i}!:
    the word is its plain word times the last entry, a Laurent
    polynomial, over [mu]!."""
    out = ONE
    seen = [0] * datum.rank
    for i, k in word:
        if seen[i - 1]:
            out = out * quantum_binomial(seen[i - 1] + k, k,
                                         datum.root_norm(i))
        seen[i - 1] += k
    return word_to_plain(word), tuple(seen), out


@cache
def _weight_factors(datum, mu):
    """([mu]!, prod_i (1 - q_i^-2)^mu_i): the denominator that a weight mu
    adds to the plain sum of divided-power words, and that of the
    generator factor prod_i (E_i, F_i)^mu_i."""
    fact = content = ONE
    for i, c in enumerate(mu, start=1):
        if c:
            fact = fact * quantum_factorial(c, datum.root_norm(i))
            content = content * LaurentPoly(
                {0: 1, -2 * datum.d[i - 1]: -1}) ** c
    return fact, content


def _plain_sums(datum, items):
    """{(tag, weight mu): PlainSum} from (tag, divided-power word, c)
    items, with the terms of each sum in lexicographic order.  Each tag
    and weight gets the one denominator L [mu]!, L the lcm of the
    denominators of its c; a word adds num(c) L/den(c) times its
    multinomial (_plain_form) to its plain word."""
    groups = {}
    for tag, word, c in items:
        plain, mu, factor = _plain_form(datum, word)
        groups.setdefault((tag, mu), []).append((plain, c, factor))
    out = {}
    for (tag, mu), group in groups.items():
        lcm = ONE
        for d in {c.den for _, c, _ in group}:
            if lcm.is_one():
                lcm = d
            elif not d.is_one():
                lcm = lcm * _exact_divide(d, laurent_gcd(lcm, d))
        terms = {}
        for plain, c, factor in group:
            add_term(terms, plain, c.num * _exact_divide(lcm, c.den) * factor)
        out[tag, mu] = PlainSum(mu, dict(sorted(terms.items())),
                                lcm * _weight_factors(datum, mu)[0])
    return out


def plain_sums(x):
    """{weight: PlainSum} of a WordExpr, one sum per weight (_plain_sums)."""
    return {mu: p for (_, mu), p in _plain_sums(
        x.datum, [((), w, c) for w, c in x.terms.items()]).items()}


def _derive(datum, state, b):
    """D_b on every plain word of state {plain word: LaurentPoly}, with
    equal results merged and zero sums dropped."""
    row = datum.form_matrix[b - 1]
    out = {}
    for u, c in state.items():
        run = 0
        for t, a in enumerate(u):
            if a == b:
                add_term(out, u[:t] + u[t + 1:], c.shift(run))
            run -= row[a - 1]
    return out


def _walk(datum, states, ys):
    """sum_v c_v core(x, v) over the (plain F-word v, c_v) pairs ys.

    states maps prefixes u to the derivations D_u x = D_{u_r} ... D_{u_1} x
    of x = states[()], {plain E-word: LaurentPoly}, and is filled in
    place: each v is derived on from its longest prefix in states, and
    each new state, vanished or not, is stored under its prefix, so a
    prefix is derived once per states dict, whatever words and order
    later calls bring."""
    total = ZERO
    for v, cy in ys:
        state = states.get(v)
        if state is None:
            n = len(v) - 1
            while v[:n] not in states:
                n -= 1
            state = states[v[:n]]
            while n < len(v):
                state = _derive(datum, state, v[n])
                n += 1
                states[v[:n]] = state
        end = state.get(())
        if end is not None:
            total = total + end * cy
    return total


def plain_pairing(datum, x, y):
    """(x, y) for PlainSums x on the E side and y on the F side of one
    weight, as one reduced RatScalar of walk / (den(x) den(y) content):
    the walk goes along the terms of y in their order (_walk), and
    1/content = prod_a (E_a, F_a) is the generator factor of the weight."""
    return RatScalar(_walk(datum, {(): x.terms}, y.terms.items()),
                     x.den * y.den * _weight_factors(datum, x.weight)[1])


def pairing(x, y):
    """The Hopf pairing of a positive-side and a negative-side element.

    x: WordExpr (side E) or TriExpr with terms K_lambda * E-word;
    y: WordExpr (side F) or TriExpr with terms F-word * K_mu.
    The K parts pair as (K_lam, K_mu) = q^{-(lam, mu)}.

    Each side becomes one PlainSum per K part and weight (_plain_sums),
    and each pair of sums of one weight is paired by plain_pairing, so one
    RatScalar is built per such pair.
    """
    if isinstance(x, WordExpr):
        if x.side != "E":
            raise ValueError("first pairing argument must be E-side")
        x = TriExpr.from_word_expr(x)
    if isinstance(y, WordExpr):
        if y.side != "F":
            raise ValueError("second pairing argument must be F-side")
        y = TriExpr.from_word_expr(y)
    datum = x.datum
    if datum is not y.datum:
        raise ValueError("pairing over different Cartan data")
    if any(f1 for f1, _, _ in x.terms):
        raise ValueError("first pairing argument has F content")
    if any(e2 for _, _, e2 in y.terms):
        raise ValueError("second pairing argument has E content")
    xs = _plain_sums(datum, [(lam, e1, c1)
                             for (_, lam, e1), c1 in x.terms.items()])
    ys = _plain_sums(datum, [(mu, f2, c2)
                             for (f2, mu, _), c2 in y.terms.items()])
    vals = [plain_pairing(datum, xp, yp).shift(-form(datum, lam, mu))
            for (lam, wt), xp in xs.items()
            for (mu, wt2), yp in ys.items() if wt == wt2]
    return sum(vals[1:], vals[0]) if vals else RatScalar.zero()


# -- canonical forms ------------------------------------------------------

class CanonicalForm:
    """The vector of pairings (x, F_w) over all plain words w of the
    weight of x; zero vector iff x = 0 in U_q(n)."""

    __slots__ = ("datum", "weight_coords", "entries")

    def __init__(self, datum, weight_coords, entries):
        self.datum = datum
        self.weight_coords = tuple(weight_coords)
        self.entries = {w: c for w, c in entries.items() if not c.is_zero()}

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        if self.datum is not other.datum:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return (self.weight_coords == other.weight_coords
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.datum.label, self.weight_coords,
                     frozenset(self.entries.items())))

    def __repr__(self):
        return "CanonicalForm(%s, %d entries)" % (
            list(self.weight_coords), len(self.entries))


def canonical_form(x):
    """The pairing vector of a homogeneous UPlusExpr, in one walk: from
    the plain sum of x, D_b for every letter b at every depth, a branch
    pruned as soon as its sum vanishes.  The words reached at full depth
    are the plain words w with (x, F_w) != 0, in lexicographic order."""
    if x.side != "E":
        raise ValueError("canonical_form expects an E-side expression")
    datum = x.datum
    if x.is_zero():
        return CanonicalForm(datum, (0,) * datum.rank, {})
    mu = x.weight()
    height = sum(mu)
    (p,) = plain_sums(x).values()
    den = p.den * _weight_factors(datum, mu)[1]
    entries = {}

    def visit(word, state):
        if len(word) == height:
            entries[word] = RatScalar(state[()], den)
            return
        for b in datum.indices:
            nxt = _derive(datum, state, b)
            if nxt:
                visit(word + (b,), nxt)

    visit((), p.terms)
    return CanonicalForm(datum, mu, entries)


def expr_equal(x, y):
    """Semantic equality in U_q(n), componentwise on weights."""
    cx = x.homogeneous_components()
    cy = y.homogeneous_components()
    for mu in set(cx) | set(cy):
        a = cx.get(mu, WordExpr.zero(x.datum, x.side))
        b = cy.get(mu, WordExpr.zero(y.datum, y.side))
        if canonical_form(a) != canonical_form(b):
            return False
    return True


def expr_is_zero(x):
    return all(canonical_form(c).is_zero()
               for c in x.homogeneous_components().values())
