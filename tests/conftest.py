"""Fixtures shared by more than one test module."""

import functools

import pytest

import qminor.canonical
from qminor.scalars import LaurentPoly, RatScalar


@pytest.fixture
def non_laurent_commutator(monkeypatch):
    """Divide every straightening coefficient that canonical reads by
    1 + q + q^2, which no dual normalizer ratio cancels, so each nonempty
    S* is non-Laurent.  The S* cache and the letter-times-datum table are
    swapped for empty ones, so nothing cached before the test hides the
    patch, and nothing the patch computes outlives it."""
    orig = qminor.canonical.straighten_commutator
    den = RatScalar(LaurentPoly.from_int(1), LaurentPoly({0: 1, 1: 1, 2: 1}))
    monkeypatch.setattr(
        qminor.canonical, "straighten_commutator",
        lambda w, k, kp: {m: c * den for m, c in orig(w, k, kp).items()})
    for name in ("_dual_commutator", "_letter_times_datum"):
        fresh = functools.cache(getattr(qminor.canonical, name).__wrapped__)
        monkeypatch.setattr(qminor.canonical, name, fresh)
