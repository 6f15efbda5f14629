"""Cartan data, the invariant form, Weyl words and convex orderings.

Supported types: A1..A4, B2, D4 (rank <= 4, |R+| <= 12).  Vertices are
1-based.  For B2 the vertex labeling is: alpha_1 short, alpha_2 long;
short roots are normalized to (alpha, alpha) = 2.  For D4, vertex 2 is
the branch vertex adjacent to 1, 3 and 4.
"""

from fractions import Fraction
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
        self._fundamental = None
        cls._cache[label] = self
        return self

    @property
    def indices(self):
        return range(1, self.rank + 1)

    def is_simply_laced(self):
        return self.label != "B2"

    def alpha(self, i):
        """The simple root alpha_i as a Vec."""
        self._check_index(i)
        return Vec(self, tuple(Fraction(1 if j == i - 1 else 0)
                               for j in range(self.rank)))

    def varpi(self, i):
        """The fundamental weight varpi_i as a Vec in root coordinates."""
        self._check_index(i)
        if self._fundamental is None:
            self._fundamental = _invert_form(self.form_matrix, self.d)
        return Vec(self, self._fundamental[i - 1])

    def zero(self):
        return Vec(self, (Fraction(0),) * self.rank)

    def root_norm(self, i):
        """(alpha_i, alpha_i) = 2 d_i."""
        self._check_index(i)
        return 2 * self.d[i - 1]

    def _check_index(self, i):
        if not 1 <= i <= self.rank:
            raise IndexError("vertex %d out of range for %s" % (i, self.label))

    def __repr__(self):
        return "CartanDatum(%r)" % self.label


def _invert_form(F, d):
    """Root coordinates of the fundamental weights: solve F c_i = d_i e_i."""
    n = len(F)
    # Gauss-Jordan over Q
    aug = [[Fraction(F[r][c]) for c in range(n)]
           + [Fraction(d[c] if c == r else 0) for c in range(n)]
           for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[r][n + i] for r in range(n)) for i in range(n))


class Vec:
    """A vector of the weight space in simple-root coordinates (over Q)."""

    __slots__ = ("datum", "coords")

    def __init__(self, datum, coords):
        self.datum = datum
        self.coords = tuple(Fraction(c) for c in coords)

    @classmethod
    def from_root_coords(cls, datum, coords):
        return cls(datum, coords)

    @classmethod
    def from_weight_coords(cls, datum, coords):
        v = datum.zero()
        for i, c in enumerate(coords, start=1):
            if c:
                v = v + datum.varpi(i) * c
        return v

    def weight_coords(self):
        """Coordinates in the fundamental-weight basis: <x, alpha_i>/d_i."""
        d = self.datum
        return tuple(Fraction(form(self, d.alpha(i)), d.d[i - 1])
                     for i in d.indices)

    def root_coords_int(self):
        """Integer root coordinates; raises if not integral."""
        out = []
        for c in self.coords:
            if c.denominator != 1:
                raise ValueError("non-integral root coordinate in %r" % (self,))
            out.append(int(c))
        return tuple(out)

    def height(self):
        return sum(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        _same_datum(self, other)
        return Vec(self.datum, tuple(a + b for a, b in
                                     zip(self.coords, other.coords)))

    def __sub__(self, other):
        _same_datum(self, other)
        return Vec(self.datum, tuple(a - b for a, b in
                                     zip(self.coords, other.coords)))

    def __neg__(self):
        return Vec(self.datum, tuple(-a for a in self.coords))

    def __mul__(self, c):
        return Vec(self.datum, tuple(a * c for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.datum is other.datum and self.coords == other.coords

    def __hash__(self):
        return hash((self.datum.label, self.coords))

    def is_positive(self):
        """All root coordinates > 0 somewhere and >= 0 everywhere."""
        return (not self.is_zero()
                and all(c >= 0 for c in self.coords))

    def __repr__(self):
        return "Vec(%s, %s)" % (self.datum.label,
                                tuple(str(c) for c in self.coords))


def _same_datum(x, y):
    if x.datum is not y.datum:
        raise ValueError("vectors over different Cartan data: %s vs %s"
                         % (x.datum.label, y.datum.label))


def form(x, y):
    """The W-invariant symmetric bilinear form <x, y> (a Fraction or int)."""
    _same_datum(x, y)
    F = x.datum.form_matrix
    total = Fraction(0)
    for i, a in enumerate(x.coords):
        if a:
            for j, b in enumerate(y.coords):
                if b:
                    total += a * b * F[i][j]
    if total.denominator == 1:
        return int(total)
    return total


def reflect(i, x):
    """Simple reflection: s_i(x) = x - 2<x, alpha_i>/<alpha_i, alpha_i> alpha_i."""
    d = x.datum
    a = d.alpha(i)
    c = Fraction(2 * form(x, a), d.root_norm(i))
    return x - a * c


def weyl_act(datum, word, x):
    """Apply s_{i_1} o ... o s_{i_k} (s_{i_1} acting last) to x."""
    for i in reversed(tuple(word)):
        x = reflect(i, x)
    return x


class ReducedWord:
    """A reduced word with its convex sequence beta_1 < ... < beta_k.

    beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}); the word is reduced
    iff every beta_k is a positive root and they are pairwise distinct.
    """

    __slots__ = ("datum", "word", "betas")

    def __init__(self, datum, word):
        word = tuple(word)
        for i in word:
            datum._check_index(i)
        self.datum = datum
        self.word = word
        self.betas = _beta_sequence(datum, word)

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.datum is other.datum and self.word == other.word

    def __hash__(self):
        return hash((self.datum.label, self.word))

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
        if not b.is_positive():
            raise NotReduced("word %s is not reduced: beta_%d is negative"
                             % (list(word), k + 1))
        if b in seen:
            raise NotReduced("word %s is not reduced: beta_%d repeats"
                             % (list(word), k + 1))
        seen.add(b)
        betas.append(b)
        prefix.append(i)
    return tuple(betas)


def beta_sequence(w):
    """The convex root sequence of a ReducedWord."""
    return w.betas


@cache
def positive_roots(datum):
    """R+ via closure under simple reflections from the simple roots."""
    roots = {datum.alpha(i) for i in datum.indices}
    frontier = set(roots)
    while frontier:
        nxt = set()
        for r in frontier:
            for i in datum.indices:
                s = reflect(i, r)
                if s.is_positive() and s not in roots:
                    roots.add(s)
                    nxt.add(s)
        frontier = nxt
    return frozenset(roots)


def num_positive_roots(datum):
    return len(positive_roots(datum))


@cache
def longest_word(datum):
    """The lexicographically smallest reduced word for w_0.

    Greedy: append the smallest i with v(alpha_i) > 0 until every simple
    root is inverted.
    """
    n_pos = num_positive_roots(datum)
    word = []
    while len(word) < n_pos:
        for i in datum.indices:
            if weyl_act(datum, word, datum.alpha(i)).is_positive():
                word.append(i)
                break
        else:
            raise SearchStalled("descent search stalled")
    return ReducedWord(datum, word)


@cache
def dual_vertex(datum, i):
    """The index i* with w_0(alpha_i) = -alpha_{i*}."""
    w0 = longest_word(datum)
    img = -weyl_act(datum, w0.word, datum.alpha(i))
    for j in datum.indices:
        if img == datum.alpha(j):
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
    """Greedily extend a reduced word to a reduced word for w_0."""
    datum = w.datum
    word = list(w.word)
    n_pos = num_positive_roots(datum)
    while len(word) < n_pos:
        for i in datum.indices:
            if weyl_act(datum, word, datum.alpha(i)).is_positive():
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
            if weyl_act(datum, word, datum.alpha(i)).is_positive():
                extend(word + [i])

    extend([])
    return out
