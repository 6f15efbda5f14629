"""The per-call integers of a Lusztig datum, kept as the test oracle of
the cached record pbw._record.

Each function recomputes one field from the datum and the word's root
table on every call: the letters, e(m), the weight, and the d-form by
its double loop over the Gram matrix of the roots.
"""

from qminor.pbw import _root_table


def letters_of_datum(m):
    """Expand a Lusztig datum to the ascending sequence of its root indices."""
    letters = []
    for k, c in enumerate(m, start=1):
        letters.extend([k] * c)
    return tuple(letters)


def letter_exponent(w, m):
    """e(m) = sum_k d_k m_k (m_k - 1)/2 with d_k = (beta_k, beta_k)/2, so
    that E(m)* = q^e(m) E*_1^m_1 ... E*_N^m_N (the proof is in the
    docstring of pbw._record)."""
    gram = _root_table(w)[1]
    return sum(gram[k][k] // 2 * c * (c - 1) // 2 for k, c in enumerate(m))


def datum_weight(w, m):
    """sum m_k beta_k as an int tuple of simple-root coordinates."""
    out = [0] * w.datum.rank
    for c, b in zip(m, _root_table(w)[0]):
        if c:
            for t, x in enumerate(b):
                out[t] += c * x
    return tuple(out)


def double_loop_d_form(w, m, n):
    """d(m, n) = sum_{i>j} <beta_i, beta_j> m_i n_j
    + (1/2) sum_i <beta_i, beta_i> m_i n_i (an integer)."""
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
