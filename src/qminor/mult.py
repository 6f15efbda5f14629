"""q-commutation and multiplicativity on the dual canonical basis, the
adapted-algebra monomials, and the exhaustive product-verification harness.

Two basis elements b, b' q-commute when bb' = q^e b'b exactly; they are
multiplicative when q^n bb' is again a basis element.  The harness scans
all q-commuting pairs (monomial in flag minors) x (basis element) up to a
height bound and decides q^{d(m,m')} B(m)* B(m')* = B(m+m')* from the
product the q-commutation test formed: one integer identity on e and one
pass over its coordinates (_is_predicted_basis_element).  Only a pair
that fails is expanded in {B*} and tested for the lattice congruence, to
name its violation.  Every product pushes dual root vectors into
dual-PBW coordinates over Z[q, q^-1], one letter at a time, through
canonical's per-word table of E*_l E(m)*.
"""

from .scalars import ZERO
from .rootdata import weights_up_to
from .pbw import (d_form, weight_tuple, data_of_weight, render_datum, _d,
                  _record)
from .canonical import (dual_canonical_basis, expand_dual_canonical_coords,
                        dual_product, coords_congruent_mod_qL,
                        flag_minor_datum)
from .quiver import adapted_word


def _dual_can_coords(w, m):
    """B(m)* in dual-PBW coordinates, for a datum m the scan enumerated."""
    return dual_canonical_basis(_record(w, m).weight, w)[m]


def q_commute_exponent_coords(w, ca, cb):
    """(e, xy) with xy = q^e yx for x, y in dual-PBW coordinates, or None
    if the products are not proportional by a q-power.  e is read off the
    q-adic valuations of one coordinate, and holds only if
    xy[n] = q^e yx[n] at every n."""
    xy = dual_product(w, ca, cb)
    yx = dual_product(w, cb, ca)
    if set(xy) != set(yx):
        return None
    if not xy:
        return 0, xy
    m = next(iter(xy))
    e = xy[m].min_exp() - yx[m].min_exp()
    if any(xy[n] != yx[n].shift(e) for n in xy):
        return None
    return e, xy


def _is_predicted_basis_element(w, m, mp, e, xy):
    """True iff q^d xy = B(m+mp)* for xy = B(m)* B(mp)* = q^e B(mp)* B(m)*
    and d = d(m, mp), decided by (i) e = (mu, mu') - 2d and (ii) q^d xy
    has the coordinate 1 at m+mp and one in qZ[q] at every other datum.
    Expanding d over the Gram matrix of the roots gives
    (mu, mu') = d(m, mp) + d(mp, m) (check_prop32 checks it as "dsum"),
    so (i) reads e = d(mp, m) - d, the c-form c(mp, m).

    Proof.  Let T_nu = s_nu^{-1} sigma_eta be the twisted bar on weight nu,
    mu and mu' the weights of m and mp, and P = q^d xy.  sigma_eta is a
    bar-linear antiautomorphism and B(m)*, B(mp)* are T-fixed, so
    sigma_eta(P) = q^-d s_mu' s_mu B(mp)* B(m)* = q^(-2d-e) s_mu s_mu' P,
    and s_{mu+mu'} = q^-(mu,mu') s_mu s_mu' (eigen_scalar) gives
    T_{mu+mu'}(P) = q^((mu,mu') - 2d - e) P: P is T-fixed iff (i).  (ii)
    says P lies in E(m+mp)* + qL*.  B(n)* is the only T-fixed element of
    E(n)* + qL*: the difference y of two lies in qL* and is T-fixed, and
    T is rlex-unitriangular (bar_matrix), so the coordinate of y at the
    rlex-largest datum of its support is bar-invariant and in qZ[q],
    hence 0.  So (i) and (ii) give P = B(m+mp)*; conversely
    P = B(m+mp)* is T-fixed and lies in E(m+mp)* + qL*.
    """
    d = _d(w, m, mp)
    if e != _d(w, mp, m) - d:
        return False
    target = tuple(a + b for a, b in zip(m, mp))
    return xy.get(target, ZERO).shift(d).is_one() and all(
        c.shift(d).is_in_qZq() for n, c in xy.items() if n != target)


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
    satisfy the lattice congruence.  The product of the q-commutation
    test decides a pair (_is_predicted_basis_element); a pair it rejects
    goes through is_multiplicative and check_511, which name the
    violation.  Returns a JSON-ready report."""
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
            qc = q_commute_exponent_coords(w, cm, _dual_can_coords(w, mp))
            if qc is None:
                continue
            q_comm += 1
            if _is_predicted_basis_element(w, m, mp, *qc):
                mult += 1
                continue
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
