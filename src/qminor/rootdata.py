"""Cartan data, the invariant form, Weyl words and convex orderings.

Supported types: A1..A4, B2, D4 (rank <= 4, |R+| <= 12).  Vertices are
1-based.  For B2 the vertex labeling is: alpha_1 short, alpha_2 long;
short roots are normalized to (alpha, alpha) = 2.  For D4, vertex 2 is
the branch vertex adjacent to 1, 3 and 4.
"""

from functools import cache
from itertools import product


class NotReduced(ValueError):
    """Raised when a word fails the convexity/reducedness check."""


class SearchStalled(ArithmeticError):
    """A greedy extension to a reduced word for w_0 found no simple root
    to append before reaching the length of w_0 (a Weyl group bug)."""


class NoDualVertex(ArithmeticError):
    """-w_0(alpha_i) is not a simple root (a Weyl group bug)."""


_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    # alpha_1 short, alpha_2 long: a_12 = -2, a_21 = -1
    "B2": [[2, -2], [-1, 2]],
    # vertex 2 is the center of the star
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}

_SYMMETRIZERS = {
    "A1": [1], "A2": [1, 1], "A3": [1, 1, 1], "A4": [1, 1, 1, 1],
    "B2": [1, 2],
    "D4": [1, 1, 1, 1],
}


class CartanDatum:
    """Cartan matrix, symmetrizers and the W-invariant form of one type."""

    _cache = {}

    def __new__(cls, label):
        if label in cls._cache:
            return cls._cache[label]
        if label not in _CARTAN:
            raise ValueError("unsupported type %r (expected one of %s)"
                             % (label, sorted(_CARTAN)))
        self = super().__new__(cls)
        self.label = label
        self.cartan = tuple(tuple(row) for row in _CARTAN[label])
        self.d = tuple(_SYMMETRIZERS[label])
        self.rank = len(self.cartan)
        # (alpha_i, alpha_j) = d_i a_ij
        self.form_matrix = tuple(
            tuple(self.d[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank))
        cls._cache[label] = self
        return self

    @property
    def indices(self):
        return range(1, self.rank + 1)

    def is_simply_laced(self):
        return self.label != "B2"

    def alpha(self, i, sign=1):
        """The simple root sign * alpha_i as an int tuple of simple-root
        coordinates."""
        self._check_index(i)
        return tuple(sign if j == i - 1 else 0 for j in range(self.rank))

    def root_norm(self, i):
        """(alpha_i, alpha_i) = 2 d_i."""
        self._check_index(i)
        return 2 * self.d[i - 1]

    def _check_index(self, i):
        if not 1 <= i <= self.rank:
            raise IndexError("vertex %d out of range for %s" % (i, self.label))

    def __repr__(self):
        return "CartanDatum(%r)" % self.label


def form(datum, a, b):
    """The W-invariant form <sum a_i alpha_i, sum b_j alpha_j> on int
    coordinate tuples."""
    F = datum.form_matrix
    total = 0
    for i, x in enumerate(a):
        if x:
            row = F[i]
            for j, y in enumerate(b):
                if y:
                    total += x * y * row[j]
    return total


def reflect(datum, i, x):
    """The simple reflection s_i(x) = x - <alpha_i^v, x> alpha_i of the int
    tuple x, where <alpha_i^v, x> = 2(x, alpha_i)/(alpha_i, alpha_i) =
    sum_j a_ij x_j because d_i a_ij = d_j a_ji."""
    p = sum(a * c for a, c in zip(datum.cartan[i - 1], x))
    if not p:
        return x
    return x[:i - 1] + (x[i - 1] - p,) + x[i:]


def is_positive(x):
    """True iff x is nonzero with every coordinate >= 0."""
    return any(x) and all(c >= 0 for c in x)


def weyl_act(datum, word, x):
    """Apply s_{i_1} o ... o s_{i_k} (s_{i_1} acting last) to x."""
    for i in reversed(tuple(word)):
        x = reflect(datum, i, x)
    return x


def minor_weight(datum, word):
    """(Id - s_{i_1} ... s_{i_k}) varpi_{i_k} for the nonempty word
    (i_1, ..., i_k), in simple-root coordinates.

    Proof.  Apply s_{i_k}, ..., s_{i_1} in turn to lambda = varpi_{i_k},
    keeping only the pairings p_l = <alpha_l^v, lambda>.  They start at
    the unit vector e_{i_k}, since <alpha_l^v, varpi_i> = delta_li.  A
    step s_j sends lambda to lambda - p_j alpha_j, so the walk's first
    lambda minus its last, (Id - w) varpi_{i_k}, is the sum of the
    p_j alpha_j taken along the way; and p_l becomes
    p_l - p_j <alpha_l^v, alpha_j> = p_l - p_j a_lj.  Every quantity is
    an integer, so varpi_{i_k} itself, whose root coordinates are
    rational, is never formed.
    """
    cartan = datum.cartan
    p = [int(l == word[-1]) for l in datum.indices]
    out = [0] * datum.rank
    for j in reversed(word):
        c = p[j - 1]
        if c:
            out[j - 1] += c
            for l in range(datum.rank):
                p[l] -= c * cartan[l][j - 1]
    return tuple(out)


class ReducedWord:
    """A reduced word with its convex sequence beta_1 < ... < beta_k of
    positive roots, as int tuples of simple-root coordinates.

    beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}); the word is reduced
    iff every beta_k is a positive root and they are pairwise distinct.
    """

    __slots__ = ("datum", "word", "betas", "_hash")

    def __init__(self, datum, word):
        word = tuple(word)
        for i in word:
            datum._check_index(i)
        self.datum = datum
        self.word = word
        self.betas = _beta_sequence(datum, word)
        self._hash = hash((datum.label, word))

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.datum is other.datum and self.word == other.word

    def __hash__(self):
        return self._hash

    def inversion_set(self):
        """The set of positive roots sent negative; canonical for the
        underlying Weyl element."""
        return frozenset(self.betas)

    def render(self):
        return ",".join(str(i) for i in self.word)

    def __repr__(self):
        return "ReducedWord(%s, %s)" % (self.datum.label, self.render())


def _beta_sequence(datum, word):
    betas = []
    seen = set()
    prefix = []
    for k, i in enumerate(word):
        b = weyl_act(datum, prefix, datum.alpha(i))
        if not is_positive(b):
            raise NotReduced("word %s is not reduced: beta_%d is negative"
                             % (list(word), k + 1))
        if b in seen:
            raise NotReduced("word %s is not reduced: beta_%d repeats"
                             % (list(word), k + 1))
        seen.add(b)
        betas.append(b)
        prefix.append(i)
    return tuple(betas)


@cache
def positive_roots(datum):
    """R+ via closure under simple reflections from the simple roots."""
    roots = {datum.alpha(i) for i in datum.indices}
    frontier = set(roots)
    while frontier:
        nxt = set()
        for r in frontier:
            for i in datum.indices:
                s = reflect(datum, i, r)
                if is_positive(s) and s not in roots:
                    roots.add(s)
                    nxt.add(s)
        frontier = nxt
    return frozenset(roots)


def num_positive_roots(datum):
    return len(positive_roots(datum))


@cache
def longest_word(datum):
    """The lexicographically smallest reduced word for w_0: the greedy
    completion of the empty word."""
    return reduced_completion(ReducedWord(datum, ()))


@cache
def dual_vertex(datum, i):
    """The index i* with w_0(alpha_i) = -alpha_{i*}."""
    w0 = longest_word(datum)
    img = weyl_act(datum, w0.word, datum.alpha(i))
    for j in datum.indices:
        if img == datum.alpha(j, -1):
            return j
    raise NoDualVertex("w_0(alpha_%d) is not minus a simple root" % i)


def weights_up_to(datum, bound):
    """Every nonzero root-coordinate tuple of height <= bound, in
    lexicographic order."""
    return [mu for mu in product(range(bound + 1), repeat=datum.rank)
            if 0 < sum(mu) <= bound]


def reduced_word_for_w0(datum, word):
    """The ReducedWord of word; raises NotReduced unless it is a reduced
    word for w_0."""
    w = ReducedWord(datum, word)
    if len(w.word) != num_positive_roots(datum):
        raise NotReduced("word %s is not a reduced word for w_0"
                         % list(w.word))
    return w


def is_reduced(datum, word):
    try:
        ReducedWord(datum, word)
        return True
    except NotReduced:
        return False


def reduced_completion(w):
    """Greedily extend a reduced word v to a reduced word for w_0,
    appending each time the smallest i with v(alpha_i) > 0."""
    datum = w.datum
    word = list(w.word)
    n_pos = num_positive_roots(datum)
    while len(word) < n_pos:
        for i in datum.indices:
            if is_positive(weyl_act(datum, word, datum.alpha(i))):
                word.append(i)
                break
        else:
            raise SearchStalled("completion stalled")
    return ReducedWord(datum, word)


def all_reduced_words_for_w0(datum):
    """All reduced words for w_0 (desk scale only: use for rank <= 3)."""
    n_pos = num_positive_roots(datum)
    out = []

    def extend(word):
        if len(word) == n_pos:
            out.append(ReducedWord(datum, word))
            return
        for i in datum.indices:
            if is_positive(weyl_act(datum, word, datum.alpha(i))):
                extend(word + [i])

    extend([])
    return out
