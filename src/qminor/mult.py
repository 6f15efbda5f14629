"""q-commutation and multiplicativity on the dual canonical basis, the
adapted-algebra monomials, and the exhaustive product-verification harness.

Two basis elements b, b' q-commute when bb' = q^e b'b exactly; they are
multiplicative when q^n bb' is again a basis element.  The harness scans
all q-commuting pairs (monomial in flag minors) x (basis element) up to a
height bound and verifies single-term expansion and the lattice congruence
q^{d(m,m')} B(m)* B(m')* = B(m+m')* mod qL*.  Every product pushes
dual root vectors into dual-PBW coordinates over Z[q, q^-1], one letter
at a time, through canonical's per-word table of E*_l E(m)*.
"""

from .rootdata import weights_up_to
from .pbw import d_form, weight_tuple, data_of_weight, render_datum
from .canonical import (dual_canonical_basis, expand_dual_canonical_coords,
                        dual_product, coords_congruent_mod_qL,
                        flag_minor_datum)
from .quiver import adapted_word


def _dual_can_coords(w, m):
    """B(m)* in dual-PBW coordinates."""
    return dual_canonical_basis(weight_tuple(w, m), w)[m]


def q_commute_exponent_coords(w, ca, cb):
    """The integer e with xy = q^e yx for x, y in dual-PBW coordinates,
    or None if the products are not proportional by a q-power.  e is read
    off the q-adic valuations of one coordinate, and holds only if
    xy[n] = q^e yx[n] at every n."""
    xy = dual_product(w, ca, cb)
    yx = dual_product(w, cb, ca)
    if set(xy) != set(yx):
        return None
    if not xy:
        return 0
    m = next(iter(xy))
    e = xy[m].min_exp() - yx[m].min_exp()
    if any(xy[n] != yx[n].shift(e) for n in xy):
        return None
    return e


def is_multiplicative(w, m, mp):
    """If B(m)* B(mp)* expands as a single term q^{-n} B(m'')*, return
    (n, m''); otherwise None.  The test is convention-free: it only asks
    for a single-term dual canonical expansion."""
    prod = dual_product(w, _dual_can_coords(w, m), _dual_can_coords(w, mp))
    exp = expand_dual_canonical_coords(prod, w)
    if len(exp) != 1:
        return None
    (mpp, c), = exp.items()
    e = c.is_q_power()
    if e is None:
        return None
    return -e, mpp


def check_511(w, m, mp):
    """True iff q^{d(m,mp)} B(m)* B(mp)* = B(m+mp)* mod qL*."""
    prod = dual_product(w, _dual_can_coords(w, m), _dual_can_coords(w, mp))
    d = d_form(w, m, mp)
    lhs = {n: v.shift(d) for n, v in prod.items()}
    target = tuple(a + b for a, b in zip(m, mp))
    return coords_congruent_mod_qL(lhs, _dual_can_coords(w, target))


def adapted_monomials(w, height_bound):
    """All Lusztig data sum_k a_k n_k (a_k >= 0) over the flag-minor data
    n_k of the prefixes of w, of weight height <= height_bound; these
    parametrize the basis elements inside the adapted algebra."""
    N = len(w.word)
    gens = [flag_minor_datum(w, k) for k in range(1, N + 1)]
    heights = [sum(weight_tuple(w, g)) for g in gens]
    found = set()
    # (first generator still allowed, datum so far, height left); adding
    # generators in nondecreasing order reaches each sum once
    stack = [(0, (0,) * N, height_bound)]
    while stack:
        idx, acc, left = stack.pop()
        found.add(acc)
        for t in range(idx, N):
            if heights[t] <= left:
                stack.append((t, tuple(a + b for a, b in zip(acc, gens[t])),
                              left - heights[t]))
    return sorted(found, key=lambda m: (sum(m), m))


def all_data_up_to(w, height_bound):
    """Every Lusztig datum of weight height <= height_bound (excluding 0)."""
    return [m for mu in weights_up_to(w.datum, height_bound)
            for m in data_of_weight(w, mu)]


def verify_theorem_51(o, height_bound):
    """Scan every (monomial in flag minors) x (basis element) pair up to
    the height bound for the adapted word of the orientation o; every
    q-commuting pair must be multiplicative with the predicted datum and
    satisfy the lattice congruence.  Returns a JSON-ready report."""
    w = adapted_word(o)
    lattice = [m for m in adapted_monomials(w, height_bound) if any(m)]
    others = all_data_up_to(w, height_bound)
    scanned = q_comm = mult = 0
    violations = []
    seen = set()
    for m in lattice:
        cm = _dual_can_coords(w, m)
        for mp in others:
            key = (m, mp) if m <= mp else (mp, m)
            if key in seen:
                continue
            seen.add(key)
            scanned += 1
            e = q_commute_exponent_coords(w, cm, _dual_can_coords(w, mp))
            if e is None:
                continue
            q_comm += 1
            res = is_multiplicative(w, m, mp)
            ok511 = check_511(w, m, mp)
            expected = (d_form(w, m, mp), tuple(a + b for a, b in zip(m, mp)))
            if res is None:
                violations.append({"pair": [render_datum(m), render_datum(mp)],
                                   "reason": "q-commuting but not a single "
                                             "basis term"})
            else:
                mult += 1
                if res != expected:
                    violations.append({"pair": [render_datum(m),
                                                render_datum(mp)],
                                       "reason": "power/datum mismatch",
                                       "got": [res[0], render_datum(res[1])],
                                       "expected": [expected[0],
                                                    render_datum(expected[1])]})
            if not ok511:
                violations.append({"pair": [render_datum(m), render_datum(mp)],
                                   "reason": "lattice congruence failed"})
    return {
        "schema": 1,
        "orientation": o.render(),
        "word": list(w.word),
        "height_bound": height_bound,
        "pairs_scanned": scanned,
        "q_commuting": q_comm,
        "multiplicative": mult,
        "violations": violations,
    }
