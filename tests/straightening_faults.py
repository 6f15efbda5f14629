"""Faults injected into pbw.straighten_commutator, at the two places
where it checks what it pairs out: the leading coefficient, compared
with q^-b, and the exact division that makes each S*[m] Laurent."""

import qminor.pbw


def divide_straightening_by(monkeypatch, factor):
    """Divide every dual coordinate that straighten_commutator pairs out
    below its leading datum by the LaurentPoly factor: the exact division
    of each walk numerator by its denominator gets factor times that
    denominator.  The leading coefficient is checked with no division, so
    its check still passes."""
    orig = qminor.pbw._exact_divide
    monkeypatch.setattr(qminor.pbw, "_exact_divide",
                        lambda num, den: orig(num, den * factor))


def double_leading_coefficient(monkeypatch):
    """Double the leading PBW coordinate that straighten_commutator pairs
    out for its check, the one coordinate it takes through
    _pbw_coordinate."""
    orig = qminor.pbw._pbw_coordinate

    def doubled(x, w, m, states):
        num, den = orig(x, w, m, states)
        return num * 2, den

    monkeypatch.setattr(qminor.pbw, "_pbw_coordinate", doubled)
