"""Seeded inputs, entry-point calls and output checks of the workloads.

Every workload is a list of items.  An item is one call into a public
qminor entry point, a check of its output that does not trust the suite's
own "ok", and a rendering of that output for the run digest.  Inputs come
only from the seed: `inputs_for` picks the reduced words and the seed of
the processing order, and `items_for` builds the items from them.
DEFAULT_SEED gives the standard words of `qminor.checks.standard_words`.
"""

import hashlib
import json
import random

from qminor import canonical, mult, pbw
from qminor.checks import standard_words, weights_up_to
from qminor.pbw import render_datum
from qminor.quiver import all_orientations
from qminor.rootdata import CartanDatum, ReducedWord, is_reduced

DEFAULT_SEED = 0

# Sizes.  One cold run of each workload takes 8-10 s on a 2-core VM with
# Python 3.11, so a 60 s measurement holds five or six fresh processes.
SCAN_HEIGHTS = {"A2": 3, "A3": 2}
BASIS_HEIGHTS = (("B2", 5), ("A3", 4))
GRAM_HEIGHTS = (("D4", 2), ("A3", 4))

# pairs_scanned of verify_theorem_51 per (type, orientation, height).
PAIRS_SCANNED = {
    ("A2", "2>1", 3): 63,
    ("A2", "1>2", 3): 63,
    ("A3", "2>1,3>2", 2): 38,
    ("A3", "1>2,3>2", 2): 38,
    ("A3", "2>1,2>3", 2): 45,
    ("A3", "1>2,2>3", 2): 38,
}

# sha256 of the rendered results at DEFAULT_SEED.
DIGESTS = {
    "scan": "b0139f0741b3cd9e23ae9e90087d1ffd"
            "42b79452f078dfff48eacdf67a4276a5",
    "basis": "69576d1b7a68e42ceea79c74de165da5"
             "5133960282eacf88e0a1ea333fca5725",
    "gram": "279fcfcc9a5c7b2091681f4a7c1d0f9a"
            "7537c7bbb9db2966aa7d0bb511b58a96",
}


class Item:
    """One entry-point call.  `size` counts the items it stands for in
    items_per_s and fail_ratio: pairs for a scan, one otherwise.  `height`
    is the height of the call's weight (0 for a scan); calls run in order
    of height."""

    __slots__ = ("key", "size", "call", "check", "render", "height")

    def __init__(self, key, size, call, check, render, height=0):
        self.key = key
        self.size = size
        self.call = call
        self.check = check
        self.render = render
        self.height = height


def _rng(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def commutation_walk(w, rng, steps):
    """A reduced word of w_0 reached from w by `steps` random proposals of
    a commutation move (swap adjacent letters i, j with a_ij = 0).

    A walk over all reduced words changes the cost by up to 4x in D4 (the
    D4 gram part took 0.8-3.3 s on five random words), which would swamp
    any regression bound; on six commutation walks it took 3.0-3.4 s.
    """
    datum = w.datum
    word = list(w.word)
    for _ in range(steps):
        k = rng.randrange(len(word) - 1)
        i, j = word[k], word[k + 1]
        if datum.cartan[i - 1][j - 1] == 0:
            moved = word[:k] + [j, i] + word[k + 2:]
            if is_reduced(datum, moved):
                word = moved
    return ReducedWord(datum, word)


def seeded_words(label, seed, workload):
    """Two distinct reduced words of w_0: the standard pair at
    DEFAULT_SEED, otherwise a seeded commutation walk from each."""
    words = standard_words(CartanDatum(label))
    if seed == DEFAULT_SEED:
        return words
    rng = _rng(seed, workload, label, "words")
    walked = [commutation_walk(w, rng, 4 * len(w.word)) for w in words]
    if len({w.word for w in walked}) < len(walked):
        return words
    return walked


def scan_orientations():
    """Every orientation of A2 and of A3.  With a seed-chosen subset of the
    A3 orientations the work itself would change with the seed (202 or 209
    pairs for two of them); with all four, the seed sets only the order."""
    return [o for label in SCAN_HEIGHTS
            for o in all_orientations(CartanDatum(label))]


def check_scan_report(report, pinned):
    """No violations, every q-commuting pair multiplicative, and the pinned
    nonzero pair count; a pass with no q-commuting pair is a failure."""
    return (report["violations"] == []
            and report["q_commuting"] == report["multiplicative"]
            and report["q_commuting"] > 0
            and report["pairs_scanned"] == pinned > 0)


def check_basis(basis, data):
    """One element per datum of the weight space, coefficient 1 on its own
    datum and coefficients in qZ[q] elsewhere."""
    if not data or sorted(basis) != sorted(data):
        return False
    for n, coords in basis.items():
        diag = coords.get(n)
        if diag is None or not diag.is_one():
            return False
        if not all(c.is_in_qZq() for m, c in coords.items() if m != n):
            return False
    return True


def check_gram_entry(value, m, n):
    """(E(m), F(n)) is nonzero exactly when m = n."""
    return (m == n) != value.is_zero()


def _render_basis(basis):
    return json.dumps({render_datum(n): {render_datum(m): c.render()
                                         for m, c in sorted(coords.items())}
                       for n, coords in sorted(basis.items())},
                      sort_keys=True)


def scan_items(words):
    """One scan per orientation (see scan_orientations)."""
    items = []
    for o in scan_orientations():
        label = o.datum.label
        h = SCAN_HEIGHTS[label]
        pinned = PAIRS_SCANNED[(label, o.render(), h)]
        items.append(Item(
            "%s %s h%d" % (label, o.render(), h), pinned,
            lambda o=o, h=h: mult.verify_theorem_51(o, h),
            lambda r, pinned=pinned: check_scan_report(r, pinned),
            lambda r: json.dumps(r, sort_keys=True)))
    return items


def basis_items(words):
    items = []
    for label, h in BASIS_HEIGHTS:
        datum = CartanDatum(label)
        for w in (ReducedWord(datum, word) for word in words[label]):
            for mu in weights_up_to(datum, h):
                data = pbw.data_of_weight(w, mu)
                items.append(Item(
                    "%s %s %s" % (label, w.render(), list(mu)), 1,
                    lambda mu=mu, w=w: canonical.dual_canonical_basis(mu, w),
                    lambda b, data=data: check_basis(b, data),
                    _render_basis, sum(mu)))
    return items


def gram_items(words):
    items = []
    for label, h in GRAM_HEIGHTS:
        datum = CartanDatum(label)
        for w in (ReducedWord(datum, word) for word in words[label]):
            for mu in weights_up_to(datum, h):
                data = pbw.data_of_weight(w, mu)
                for m in data:
                    for n in data:
                        key = "%s %s %s %s" % (label, w.render(),
                                               render_datum(m),
                                               render_datum(n))
                        items.append(Item(
                            key, 1,
                            lambda w=w, m=m, n=n: pbw.pairing_em_fn(w, m, n),
                            lambda v, m=m, n=n: check_gram_entry(v, m, n),
                            lambda v: v.render(), sum(mu)))
    return items


_BUILDERS = {"scan": scan_items, "basis": basis_items, "gram": gram_items}
_TYPES = {"scan": (), "basis": BASIS_HEIGHTS, "gram": GRAM_HEIGHTS}


def inputs_for(workload, seed):
    """The generated inputs, JSON-ready.  The word walk runs here, in the
    benchmark, so that it does not count as the program's set-up."""
    return {"workload": workload, "seed": seed,
            "words": {label: [list(w.word)
                              for w in seeded_words(label, seed, workload)]
                      for label, _ in _TYPES[workload]}}


def items_for(inputs):
    """The workload's items in the seeded processing order: by increasing
    height, as `qminor basis` and the check suites go, and in seeded order
    within one height.

    A weight space's first call builds the caches that later calls of
    higher weights read.  In a fully shuffled order a call of a large
    weight that comes early also pays for the smaller ones, so which calls
    are slow, and the 90th percentile of call latency, would change with
    the seed (on basis it fell either side of a 2x step in the latency
    distribution); by height, each call pays for its own weight.
    """
    workload, seed = inputs["workload"], inputs["seed"]
    items = _BUILDERS[workload](inputs["words"])
    rng = _rng(seed, workload, "order")
    keyed = [(it.height, rng.random(), it) for it in items]
    keyed.sort(key=lambda t: t[:2])
    return [it for _, _, it in keyed]


def digest(rendered):
    """sha256 over (key, rendering) lines sorted by key, so that the
    processing order does not enter it."""
    text = "\n".join("%s\t%s" % kv for kv in sorted(rendered))
    return hashlib.sha256(text.encode()).hexdigest()
