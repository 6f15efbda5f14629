"""Fixtures shared by more than one test module."""

import functools

import pytest

import qminor.canonical
import qminor.pbw
from qminor.scalars import LaurentPoly

from straightening_faults import divide_straightening_by


@pytest.fixture
def fresh_straightening(monkeypatch):
    """Swap the S* cache and the letter-times-datum table for empty ones,
    in every module that reads them, so nothing cached before the test
    hides a patch of the straightening, and nothing the patch computes
    outlives the test."""
    fresh = functools.cache(qminor.pbw.straighten_commutator.__wrapped__)
    for module in (qminor.pbw, qminor.canonical):
        monkeypatch.setattr(module, "straighten_commutator", fresh)
    fresh = functools.cache(qminor.canonical._letter_times_datum.__wrapped__)
    monkeypatch.setattr(qminor.canonical, "_letter_times_datum", fresh)


@pytest.fixture
def non_laurent_commutator(monkeypatch, fresh_straightening):
    """Divide every dual coordinate below the leading datum by
    1 + q + q^2, so each nonempty S* is non-Laurent and the
    leading-coefficient check still passes."""
    divide_straightening_by(monkeypatch, LaurentPoly({0: 1, 1: 1, 2: 1}))
