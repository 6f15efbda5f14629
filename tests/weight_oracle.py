"""The Fraction route for weights, kept as the test oracle of rootdata's
int walks.

The fundamental weights come from a Gauss-Jordan solve over Q, the form
is taken on rational simple-root coordinates, and the reflection is
s_i(x) = x - 2(x, alpha_i)/(alpha_i, alpha_i) alpha_i.  Vectors are
tuples of Fractions, which compare equal to int tuples of equal value.
"""

from fractions import Fraction


def fundamental_weights(datum):
    """varpi_1, ..., varpi_n in simple-root coordinates: solve
    F c_i = d_i e_i for the form matrix F."""
    F, d, n = datum.form_matrix, datum.d, datum.rank
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


def frac_form(datum, x, y):
    F = datum.form_matrix
    total = Fraction(0)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    total += Fraction(a) * b * F[i][j]
    return total


def frac_reflect(datum, i, x):
    a = datum.alpha(i)
    c = Fraction(2 * frac_form(datum, x, a), datum.root_norm(i))
    return tuple(Fraction(v) - c * u for v, u in zip(x, a))


def frac_weyl_act(datum, word, x):
    """s_{i_1} o ... o s_{i_k} applied to x, s_{i_1} last."""
    for i in reversed(tuple(word)):
        x = frac_reflect(datum, i, x)
    return x


def frac_minor_weight(datum, word):
    """(Id - s_{i_1} ... s_{i_k}) varpi_{i_k}."""
    vp = fundamental_weights(datum)[word[-1] - 1]
    return tuple(a - b for a, b in zip(vp, frac_weyl_act(datum, word, vp)))
