"""The PBW-product route for sigma_eta, kept as the test oracle of
canonical.sigma_eta_dual_coords.

sigma_eta(E_{beta_k}) is paired out in PBW coordinates at its root
weight.  sigma_eta(E(n)) is the descending product of those images,
straightened over Q(q) by the letter-sequence product of
pbw_letters_oracle and divided by prod_k [n_k]!, and the dual-PBW columns
go through f_n and back.
"""

from functools import cache

from qminor.canonical import pbw_to_dual_coords
from qminor.pbw import dual_pbw_normalizer, pbw_coordinates, root_vector
from qminor.scalars import RatScalar, add_term

from pbw_letters_oracle import _letter_factorial, pbw_letters_product


@cache
def sigma_eta_root_coords(w, k):
    """PBW coordinates of sigma_eta(E_{beta_k})."""
    return pbw_coordinates(root_vector(w, k).sigma_eta(), w)


def sigma_eta_pbw_monomial(w, n):
    """PBW coordinates of sigma_eta(E(n)): sigma_eta is a bar-linear
    antiautomorphism, so the image is the descending product of the
    sigma_eta(E_{beta_k})^{n_k} factors, divided by prod_k [n_k]!."""
    N = len(w.word)
    out = {(0,) * N: RatScalar.one()}
    for k in range(N, 0, -1):
        for _ in range(n[k - 1]):
            out = pbw_letters_product(w, out, sigma_eta_root_coords(w, k))
    fact = _letter_factorial(w, n)
    return {m: v / fact for m, v in out.items()}


def pbw_route_sigma_eta_dual_coords(w, coords):
    """Dual-PBW coordinates of sigma_eta(x) for x given the same way."""
    acc = {}
    for n, c in coords.items():
        pref = c.bar() * dual_pbw_normalizer(w, n).bar()
        for m, v in sigma_eta_pbw_monomial(w, n).items():
            add_term(acc, m, pref * v)
    return pbw_to_dual_coords(w, acc)
