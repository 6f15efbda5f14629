"""The letter-sequence straightening, kept as the test oracle of
canonical._letter_times_datum and the products and sigma_eta columns
built on it.

It bubble-sorts any sequence of dual root-vector letters over
Z[q, q^-1], one adjacent inversion at a time, memoising every sequence
it meets.  A product E(m)* E(n)* is q^(e(m) + e(n)) times the
straightened letters of m followed by those of n, and a sigma_eta
column is _sigma_eta_unit times the reversed letters of n.
"""

from functools import cache

from qminor.canonical import _sigma_eta_unit
from qminor.pbw import _root_table, straighten_commutator
from qminor.scalars import LaurentPoly, add_term

from datum_oracle import letter_exponent, letters_of_datum
from pbw_letters_oracle import _datum_of_letters


@cache
def _straighten_dual_letters(w, letters):
    """Dual-PBW coordinates {datum: LaurentPoly} of E*_{l_1} ... E*_{l_r}
    for any sequence of root indices, where E*_k = (1 - q^(beta_k,
    beta_k)) E_{beta_k} = E(e_k)*.

    Both facts used come from Lusztig's product formula
    f_m = prod_k prod_{s=1..m_k} (1 - q^{2 s d_k}), d_k = (beta_k, beta_k)/2.
    Base case, E(m)* = q^e(m) E*_1^m_1 ... E*_N^m_N (letter_exponent):
    E_{beta_k}^c = [c]_{d_k}! E_{beta_k}^(c), and q^{ds} - q^{-ds} =
    -q^{-ds} (1 - q^{2ds}) gives (1 - q^{2d}) [s]_d = q^{d(1-s)}
    (1 - q^{2ds}), so E*_k^c = q^{-d_k c(c-1)/2} prod_{s=1..c}
    (1 - q^{2 s d_k}) E_{beta_k}^(c); in word order these multiply to
    q^-e(m) f_m E(m) = q^-e(m) E(m)*.  Swap law, for k < k':
    E*_k' E*_k = q^-(beta_k, beta_k') (E*_k E*_k' - sum_m S*[m] E(m)*)
    (straighten_commutator), and each E(m)* is again q^e(m) times sorted
    letters.  Each step removes an adjacent inversion or replaces a pair
    by strictly intermediate letters, so the recursion ends, and with
    S* Laurent every coefficient stays in Z[q, q^-1].
    """
    pos = next((i for i in range(len(letters) - 1)
                if letters[i] > letters[i + 1]), None)
    if pos is None:
        m = _datum_of_letters(len(w.word), letters)
        return {m: LaurentPoly.q_power(-letter_exponent(w, m))}
    x, y = letters[pos], letters[pos + 1]
    pre, suf = letters[:pos], letters[pos + 2:]
    b = _root_table(w)[1][x - 1][y - 1]
    acc = {}
    for d, c in _straighten_dual_letters(w, pre + (y, x) + suf).items():
        add_term(acc, d, c.shift(-b))
    for sm, sc in straighten_commutator(w, y, x).items():
        corr = sc.shift(letter_exponent(w, sm) - b)
        sub = pre + letters_of_datum(sm) + suf
        for d, c in _straighten_dual_letters(w, sub).items():
            add_term(acc, d, -(corr * c))
    return acc


def oracle_unit_product(w, m, n):
    """E(m)* E(n)*: q^(e(m) + e(n)) times the straightened letters of m
    followed by those of n."""
    e = letter_exponent(w, m) + letter_exponent(w, n)
    letters = letters_of_datum(m) + letters_of_datum(n)
    return {d: c.shift(e)
            for d, c in _straighten_dual_letters(w, letters).items()}


def oracle_sigma_eta_column(w, n):
    """sigma_eta(E(n)*): _sigma_eta_unit times the straightened reversed
    letters of n."""
    unit = _sigma_eta_unit(w, n)
    letters = letters_of_datum(n)[::-1]
    return {m: unit * v
            for m, v in _straighten_dual_letters(w, letters).items()}
