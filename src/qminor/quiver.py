"""Dynkin quiver orientations, sink-adapted reduced words, AR translation
and Hom/Ext dimensions from dimension data only.

Representations never appear as matrices: in Dynkin type every quantity
we need (Euler form, Hom/Ext dimensions, the AR translate) is determined
by dimension vectors, the orientation, and the adapted word, through the
recursion eps(M, N) = <dim M, dim N> + eps(N, tau M).
"""

import random

from .rootdata import (ReducedWord, num_positive_roots, weyl_act,
                       is_positive, weights_up_to, reduced_completion)
from .pbw import (d_form, weight_tuple, data_of_weight, unit_datum,
                  ext_order)
from .canonical import flag_minor_datum


class NotASink(ValueError):
    """Raised when a sink reflection is requested at a non-sink vertex."""


class NoAdaptedWord(ArithmeticError):
    """The sink-reflection search found no reduced word for w_0 adapted
    to an orientation (every Dynkin orientation has one)."""


class Orientation:
    """An orientation of the Dynkin graph of a simply-laced CartanDatum."""

    __slots__ = ("datum", "arrows")

    def __init__(self, datum, arrows):
        if not datum.is_simply_laced():
            raise ValueError("quiver orientations require a simply-laced "
                             "type, not %s" % datum.label)
        arrows = [(int(a), int(b)) for a, b in arrows]
        edges = dynkin_edges(datum)
        got = frozenset(frozenset(e) for e in arrows)
        want = frozenset(frozenset(e) for e in edges)
        if got != want:
            raise ValueError("arrows %s do not orient the %s Dynkin graph"
                             % (sorted(arrows), datum.label))
        if len(arrows) != len(edges):
            raise ValueError("duplicate edge among arrows %s"
                             % sorted(arrows))
        self.datum = datum
        self.arrows = frozenset(arrows)

    def is_sink(self, i):
        return not any(a == i for a, _ in self.arrows)

    def sinks(self):
        return [i for i in self.datum.indices
                if not any(a == i for a, _ in self.arrows)]

    def render(self):
        return ",".join("%d>%d" % (a, b) for a, b in sorted(self.arrows))

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.datum is other.datum and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.datum.label, self.arrows))

    def __repr__(self):
        return "Orientation(%s, %s)" % (self.datum.label, self.render())


def dynkin_edges(datum):
    """The undirected edges {i, j} of the Dynkin graph, as sorted pairs."""
    return [(i, j) for i in datum.indices for j in datum.indices
            if i < j and datum.cartan[i - 1][j - 1] != 0]


def parse_orientation(datum, text):
    """Parse the "2>1,2>3" edge syntax."""
    arrows = []
    for part in text.split(","):
        part = part.strip()
        if part.count(">") != 1:
            raise ValueError("bad arrow %r (expected 'a>b')" % part)
        a, b = part.split(">")
        arrows.append((int(a), int(b)))
    return Orientation(datum, arrows)


def all_orientations(datum):
    """All 2^#edges orientations, in a deterministic order."""
    edges = dynkin_edges(datum)
    out = []
    for mask in range(1 << len(edges)):
        arrows = [(a, b) if mask >> t & 1 else (b, a)
                  for t, (a, b) in enumerate(edges)]
        out.append(Orientation(datum, arrows))
    return out


def reflect_at_sink(o, i):
    """Reverse all arrows into the sink i."""
    if any(a == i for a, _ in o.arrows):
        raise NotASink("vertex %d is not a sink of %s" % (i, o.render()))
    return Orientation(o.datum, [(b, a) if b == i else (a, b)
                                 for a, b in o.arrows])


def adapted_word(o):
    """The reduced word for w_0 read off by iterated sink reflections,
    smallest admissible sink first (deterministic); depth-first with
    reducedness pruning."""
    datum = o.datum
    N = num_positive_roots(datum)

    def dfs(word, orient):
        if len(word) == N:
            return word
        for i in sorted(orient.sinks()):
            if is_positive(weyl_act(datum, word, datum.alpha(i))):
                found = dfs(word + [i], reflect_at_sink(orient, i))
                if found is not None:
                    return found
        return None

    word = dfs([], o)
    if word is None:
        raise NoAdaptedWord("no adapted word for %s" % o.render())
    return ReducedWord(datum, word)


# -- the AR translate and Hom/Ext dimensions ----------------------------------

PROJECTIVE = None


def tau(w, k):
    """Index of the AR translate of the k-th indecomposable: the largest
    k' < k with i_{k'} = i_k, or PROJECTIVE (None)."""
    i = w.word[k - 1]
    for kp in range(k - 1, 0, -1):
        if w.word[kp - 1] == i:
            return kp
    return PROJECTIVE


def tau_class(w, m):
    """tau applied summand-wise to a representation class, dropping
    projective summands."""
    out = [0] * len(m)
    for k, c in enumerate(m, start=1):
        if c:
            kp = tau(w, k)
            if kp is not None:
                out[kp - 1] += c
    return tuple(out)


def dim_vector(w, m):
    """Gabriel: the dimension vector of the class m is sum m_k beta_k."""
    return weight_tuple(w, m)


def euler_form(o, a, b):
    """<a, b> = sum_v a_v b_v - sum_{v->w} a_v b_w on dimension vectors."""
    total = sum(x * y for x, y in zip(a, b))
    for v, t in o.arrows:
        total -= a[v - 1] * b[t - 1]
    return total


def hom_dim(o, w, m, n):
    """eps(M, N) = dim Hom(M, N) via eps(M, N) = <dim M, dim N> + eps(N, tau M),
    with eps(X, 0) = eps(0, X) = 0 and tau = 0 on projectives."""
    total = 0
    while any(m) and any(n):
        total += euler_form(o, dim_vector(w, m), dim_vector(w, n))
        m, n = n, tau_class(w, m)
    return total


def ext_dim(o, w, m, n):
    """zeta(M, N) = dim Ext^1(M, N) = eps(N, tau M)  (the AR formula)."""
    return hom_dim(o, w, n, tau_class(w, m))


def check_d_identity(o, w, samples=100, seed=0):
    """Verify d(iota M, iota N) = eps(N, M) - zeta(M, N) on all pairs of
    indecomposables and on random decomposable classes; returns the list
    of failing pairs (empty = identity holds)."""
    N = len(w.word)
    failures = []

    def check(m, n):
        lhs = d_form(w, m, n)
        rhs = hom_dim(o, w, n, m) - ext_dim(o, w, m, n)
        if lhs != rhs:
            failures.append((m, n, lhs, rhs))

    for k in range(1, N + 1):
        for kp in range(1, N + 1):
            check(unit_datum(N, k), unit_datum(N, kp))
    rng = random.Random(seed)
    for _ in range(samples):
        m = tuple(rng.randrange(3) for _ in range(N))
        n = tuple(rng.randrange(3) for _ in range(N))
        check(m, n)
    return failures


def check_monotone(o, w, k, height_bound):
    """Verify (a) d(n_k, m) = eps(iota^{-1}(m), M_k) for all m up to the
    height bound, and (b) d(n_k, .) is non-decreasing along the Ext order;
    n_k is the flag-minor datum of the length-k prefix.  Returns failures."""
    N = len(w.word)
    nk = flag_minor_datum(w, k)
    mk = unit_datum(N, k)
    order = ext_order(w)
    failures = []
    for mu in weights_up_to(w.datum, height_bound):
        data = data_of_weight(w, mu)
        vals = {}
        for m in data:
            dv = d_form(w, nk, m)
            ev = hom_dim(o, w, m, mk)
            vals[m] = dv
            if dv != ev:
                failures.append(("hom", m, dv, ev))
        for m in data:
            for n in data:
                if m != n and order.leq(m, n) and vals[m] > vals[n]:
                    failures.append(("monotone", m, n, vals[m], vals[n]))
    return failures


# -- type A flag words ---------------------------------------------------------

def typeA_flag_word(datum, rows):
    """The reduced-word prefix whose flag minor is the quantum minor with
    row set `rows` (type A_n, rows inside {1..n+1}), together with a
    completion to a reduced word for w_0.

    The prefix is the concatenation over the sorted rows i_1 < ... < i_k
    of the descending blocks (i_j - 1, i_j - 2, ..., j).
    """
    if not datum.label.startswith("A"):
        raise ValueError("flag words are a type A construction")
    rows = sorted(set(int(r) for r in rows))
    if not rows or rows[0] < 1 or rows[-1] > datum.rank + 1:
        raise ValueError("row set %s out of range for %s"
                         % (rows, datum.label))
    prefix = []
    for j, i in enumerate(rows, start=1):
        prefix.extend(range(i - 1, j - 1, -1))
    completed = _complete(datum, prefix)
    return tuple(prefix), completed


def _complete(datum, prefix):
    return reduced_completion(ReducedWord(datum, prefix))
