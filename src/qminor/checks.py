"""Named verification suites over the library: each function runs one
identity family exhaustively at desk scale and returns a JSON-ready
report with an "ok" flag.  The command-line `check` subcommand and the
test suite both dispatch here.
"""

from .scalars import RatScalar, ONE
from .rootdata import (CartanDatum, ReducedWord, form, longest_word,
                       weights_up_to, reduced_completion, reduced_word_for_w0)
from .qea import WordExpr, TriExpr, pairing, canonical_form, serre_element
from . import pbw, canonical, quiver, mult


def standard_words(datum):
    """Two reduced words of w_0 per type: the lex-smallest one and its
    image under the index reversal i -> rank + 1 - i (a diagram symmetry
    for the path types; for D4 the 1<->3 swap)."""
    w0 = longest_word(datum)
    if datum.label == "D4":
        perm = {1: 3, 2: 2, 3: 1, 4: 4}
    else:
        perm = {i: datum.rank + 1 - i for i in datum.indices}
    other = tuple(perm[i] for i in w0.word)
    if other == w0.word:
        return [w0]
    return [w0, ReducedWord(datum, other)]


# -- foundation ----------------------------------------------------------------

def check_serre(label):
    """Quantum Serre elements vanish under canonical_form."""
    datum = CartanDatum(label)
    pairs = [(i, j) for i in datum.indices for j in datum.indices
             if i != j and datum.cartan[i - 1][j - 1] != 0]
    if not pairs:
        raise ValueError("%s has no Serre relation" % label)
    failures = [[i, j] for i, j in pairs
                if not canonical_form(serre_element(datum, i, j)).is_zero()]
    return _report(label, failures, pairs=len(pairs))


def check_pairing(label):
    """The generator axioms of the Hopf pairing, verbatim:
    (E_i, F_j) = delta_ij / (1 - q_i^{-2}), (K_lam, K_mu) = q^{-(lam,mu)}."""
    datum = CartanDatum(label)
    failures = []
    for i in datum.indices:
        for j in datum.indices:
            got = pairing(WordExpr.generator(datum, i),
                          WordExpr.generator(datum, j, side="F"))
            if i == j:
                want = RatScalar.one() / (
                    RatScalar.one() - RatScalar.q_power(-datum.root_norm(i)))
            else:
                want = RatScalar.zero()
            if got != want:
                failures.append(["EF", i, j, got.render()])
    for i in datum.indices:
        for j in datum.indices:
            got = pairing(TriExpr.k_elt(datum, datum.alpha(i)),
                          TriExpr.k_elt(datum, datum.alpha(j)))
            want = RatScalar.q_power(-form(datum, datum.alpha(i),
                                           datum.alpha(j)))
            if got != want:
                failures.append(["KK", i, j, got.render()])
    return _report(label, failures)


def check_biorthogonality(label, height_bound, words=None):
    """(E(m), F(n)) = delta_mn * (nonzero) within every weight space;
    "checked" counts the pairs, and a run with none is not ok."""
    datum = CartanDatum(label)
    failures = []
    checked = 0
    for w in (words or standard_words(datum)):
        for mu in weights_up_to(datum, height_bound):
            data = pbw.data_of_weight(w, mu)
            checked += len(data) ** 2
            for m in data:
                for n in data:
                    p = pbw.pairing_em_fn(w, m, n)
                    if (m == n) != (not p.is_zero()):
                        failures.append([list(w.word), list(m), list(n)])
    return _counted_report(label, failures, checked)


def check_normalizers(label, height_bound, words=None):
    """f_m(0) = 1, bar(f_m) = +-q^a f_m and (E(m), F(m)) f_m = +-q^a on
    every datum in range; "checked" counts the data, and a run with none
    is not ok."""
    datum = CartanDatum(label)
    failures = []
    checked = 0
    for w in (words or standard_words(datum)):
        for mu in weights_up_to(datum, height_bound):
            for m in pbw.data_of_weight(w, mu):
                checked += 1
                f = pbw.dual_pbw_normalizer(w, m)
                if f.eval_at_zero() != 1:
                    failures.append([list(w.word), list(m), "f(0)"])
                    continue
                r = f.bar() / f
                if r.is_q_power() is None and (-r).is_q_power() is None:
                    failures.append([list(w.word), list(m), "bar"])
                g = pbw.pairing_em_fn(w, m, m) * f
                if g.is_q_power() is None and (-g).is_q_power() is None:
                    failures.append([list(w.word), list(m), "pairing"])
    return _counted_report(label, failures, checked)


# -- dual canonical basis ------------------------------------------------------

def check_prop21(label, words=None):
    """B(e_k)* = E(e_k)* for every k, and by pairing the premise that the
    bar matrix builds in, sigma_eta(E*_k) = s_{beta_k} E*_k: with E*_k =
    f E_{beta_k}, sigma_eta(E_{beta_k}) = s_{beta_k} f / bar(f) E_{beta_k}."""
    datum = CartanDatum(label)
    failures = []
    for w in (words or standard_words(datum)):
        for k in range(1, len(w.word) + 1):
            n = pbw.unit_datum(len(w.word), k)
            mu = pbw.weight_tuple(w, n)
            f = pbw.dual_pbw_normalizer(w, n)
            image = pbw.pbw_coordinates(pbw.root_vector(w, k).sigma_eta(), w)
            if image != {n: canonical.eigen_scalar(datum, mu) * f / f.bar()}:
                failures.append([list(w.word), k, "sigma_eta"])
            c = canonical.dual_canonical_basis(mu, w)[n]
            if set(c) != {n} or not c[n].is_one():
                failures.append([list(w.word), k])
    return _report(label, failures)


def check_cor22(label, height_bound, words=None):
    """Unitriangularity over rlex with off-diagonal coefficients in qZ[q];
    for adapted words, support additionally below in the Ext order."""
    datum = CartanDatum(label)
    failures = []
    adapted = set()
    if datum.is_simply_laced():
        adapted = {quiver.adapted_word(o).word
                   for o in quiver.all_orientations(datum)}
    for w in (words or standard_words(datum)):
        order = pbw.ext_order(w) if w.word in adapted else None
        for mu in weights_up_to(datum, height_bound):
            basis = canonical.dual_canonical_basis(mu, w)
            for n, c in basis.items():
                for m, cm in c.items():
                    if m == n:
                        if not cm.is_one():
                            failures.append([list(w.word), list(n), "diag"])
                    else:
                        if not pbw.rlex_less(m, n) or not cm.is_in_qZq():
                            failures.append([list(w.word), list(n), list(m)])
                        elif order is not None and not order.leq(m, n):
                            failures.append([list(w.word), list(n), list(m),
                                             "ext"])
    return _report(label, failures)


def check_prop31(label, height_bound, words=None):
    """Delta*_w E(m)* = q^{<(Id+w)varpi_{i_k}, mu>} E(m)* Delta*_w exactly,
    for every prefix and every datum supported on it.

    With nu = (Id - w)varpi_i the flag minor's weight, (Id + w)varpi_i =
    2 varpi_i - nu, and (varpi_i, alpha_j) = d_i delta_ij, so the exponent
    is 2 d_i mu_i - <nu, mu>."""
    datum = CartanDatum(label)
    failures = []
    for w in (words or standard_words(datum)):
        for k in range(1, len(w.word) + 1):
            nk = canonical.flag_minor_datum(w, k)
            nu = pbw.weight_tuple(w, nk)
            dc = canonical.dual_canonical_basis(nu, w)[nk]
            i = w.word[k - 1]
            for mu in weights_up_to(datum, height_bound):
                for m in pbw.data_of_weight(w, mu):
                    if not canonical.demazure_flag(m, k):
                        continue
                    em = {m: ONE}
                    lhs = canonical.dual_product(w, dc, em)
                    rhs = canonical.dual_product(w, em, dc)
                    ex = 2 * datum.d[i - 1] * mu[i - 1] - form(datum, nu, mu)
                    if lhs != {d: c.shift(ex) for d, c in rhs.items()}:
                        failures.append([list(w.word), k, list(m)])
    return _report(label, failures)


def check_prop32(label, height_bound, words=None):
    """q^{d(n_w, m)} Delta*_w E(m)* = E(n_w + m)* mod qL*, plus the two
    d-form identities d(n,m)+d(m,n) = <nu,mu> and d(n,m)-d(m,n) = c(n,m)."""
    datum = CartanDatum(label)
    failures = []
    for w in (words or standard_words(datum)):
        for k in range(1, len(w.word) + 1):
            nk = canonical.flag_minor_datum(w, k)
            nu = pbw.weight_tuple(w, nk)
            dc = canonical.dual_canonical_basis(nu, w)[nk]
            for mu in weights_up_to(datum, height_bound):
                nu_mu = form(datum, nu, mu)
                for m in pbw.data_of_weight(w, mu):
                    dnm = pbw.d_form(w, nk, m)
                    dmn = pbw.d_form(w, m, nk)
                    if dnm + dmn != nu_mu:
                        failures.append([list(w.word), k, list(m), "dsum"])
                    if dnm - dmn != pbw.c_form(w, nk, m):
                        failures.append([list(w.word), k, list(m), "c"])
                    prod = canonical.dual_product(w, dc, {m: ONE})
                    lhs = {d: c.shift(dnm) for d, c in prod.items()}
                    target = tuple(a + b for a, b in zip(nk, m))
                    if not canonical.coords_congruent_mod_qL(
                            lhs, {target: ONE}):
                        failures.append([list(w.word), k, list(m), "cong"])
    return _report(label, failures)


# -- quiver side ---------------------------------------------------------------

def _orientations(datum, orientation):
    """The one parsed orientation, or all orientations when it is None."""
    if orientation is not None:
        return [quiver.parse_orientation(datum, orientation)]
    return quiver.all_orientations(datum)


def check_prop41(label, orientation=None):
    """d(iota M, iota N) = eps(N, M) - zeta(M, N) over all orientations
    (or one given orientation)."""
    orients = _orientations(CartanDatum(label), orientation)
    failures = []
    for o in orients:
        w = quiver.adapted_word(o)
        for fail in quiver.check_d_identity(o, w):
            failures.append([o.render(), list(fail[0]), list(fail[1])])
    return _report(label, failures, orientations=len(orients))


def check_prop42(label, height_bound, orientation=None):
    """d(n_w, .) = eps(., M_k) and monotonicity along the Ext order."""
    orients = _orientations(CartanDatum(label), orientation)
    failures = []
    for o in orients:
        w = quiver.adapted_word(o)
        for k in range(1, len(w.word) + 1):
            for fail in quiver.check_monotone(o, w, k, height_bound):
                failures.append([o.render(), k] + [str(x) for x in fail])
    return _report(label, failures, orientations=len(orients))


def check_thm51(label, height_bound, orientation=None):
    """The full multiplicativity harness; one orientation or all."""
    orients = _orientations(CartanDatum(label), orientation)
    reports = [mult.verify_theorem_51(o, height_bound) for o in orients]
    failures = [v for r in reports for v in r["violations"]]
    out = _report(label, failures)
    out["reports"] = reports
    return out


def check_claim43(label="A3"):
    """Type A: every quantum minor from a row set coincides with a flag
    minor of some orientation-adapted word (element-level comparison)."""
    datum = CartanDatum(label)
    adapted = [(o, quiver.adapted_word(o))
               for o in quiver.all_orientations(datum)]
    failures = []
    checked = 0
    n1 = datum.rank + 1
    for mask in range(1, 1 << n1):
        rows = [r + 1 for r in range(n1) if mask >> r & 1]
        prefix, w = quiver.typeA_flag_word(datum, rows)
        if not prefix:
            continue
        checked += 1
        _, elt = canonical.flag_minor(w, len(prefix))
        target = canonical_form(elt)
        wt = elt.weight()
        if not any(cf == target for _, wa in adapted
                   for _, cf in _same_weight_flag_minors(wa, wt)):
            failures.append([rows, list(prefix)])
    return _report(label, failures, minors_checked=checked)


def _same_weight_flag_minors(wa, wt):
    """Yield (k, canonical form) for each flag minor of the word wa whose
    weight is the int tuple wt, forming only those minors."""
    for k in range(1, len(wa.word) + 1):
        if pbw.weight_tuple(wa, canonical.flag_minor_datum(wa, k)) == wt:
            yield k, canonical_form(canonical.flag_minor(wa, k)[1])


def check_remark43(label="D4"):
    """D4: the flag minor of the prefix s_2 s_1 s_3 s_2 is compared with
    every flag minor of every orientation-adapted word.  No match is the
    expected outcome; a match would be an open finding, not a bug."""
    datum = CartanDatum(label)
    if label != "D4":
        raise ValueError("remark43 is a D4 check, not %s" % label)
    w = reduced_completion(ReducedWord(datum, (2, 1, 3, 2)))
    n, elt = canonical.flag_minor(w, 4)
    target = canonical_form(elt)
    wt = elt.weight()
    matches = []
    candidates = 0
    for o in quiver.all_orientations(datum):
        for k, cf in _same_weight_flag_minors(quiver.adapted_word(o), wt):
            candidates += 1
            if cf == target:
                matches.append([o.render(), k])
    return {
        "schema": 1,
        "type": "D4",
        "word": list(w.word),
        "prefix": [2, 1, 3, 2],
        "weight": list(wt),
        "same_weight_candidates": candidates,
        "matches": matches,
        "ok": True,
        "open_finding": bool(matches),
    }


def _report(label, failures, **extra):
    out = {"schema": 1, "type": label, "ok": not failures,
           "failures": failures}
    out.update(extra)
    return out


def _counted_report(label, failures, checked):
    """_report with the number of cases checked; a run that checked none
    is not ok, whatever its failures."""
    out = _report(label, failures, checked=checked)
    out["ok"] = out["ok"] and checked > 0
    return out


SUITES = {
    "serre": lambda args: check_serre(args.type),
    "pairing": lambda args: check_pairing(args.type),
    "prop21": lambda args: check_prop21(args.type, _words(args)),
    "cor22": lambda args: check_cor22(args.type, args.height, _words(args)),
    "prop31": lambda args: check_prop31(args.type, args.height, _words(args)),
    "prop32": lambda args: check_prop32(args.type, args.height, _words(args)),
    "prop41": lambda args: check_prop41(args.type, args.orientation),
    "prop42": lambda args: check_prop42(args.type, args.height,
                                        args.orientation),
    "thm51": lambda args: check_thm51(args.type, args.height,
                                      args.orientation),
    "remark43": lambda args: check_remark43(args.type),
}


# the suites that read --word, --orientation and --height; the CLI
# rejects each flag on any other suite rather than drop it
WORD_SUITES = ("prop21", "cor22", "prop31", "prop32")
ORIENTATION_SUITES = ("prop41", "prop42", "thm51")
HEIGHT_SUITES = ("cor22", "prop31", "prop32", "prop42", "thm51")


def _words(args):
    if getattr(args, "word", None):
        return [reduced_word_for_w0(CartanDatum(args.type), args.word)]
    return None
