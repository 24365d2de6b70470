"""Acceptance gate: every criterion at its stated gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one measured
pass/fail line per criterion (the same lines ``infoflow check all`` prints).
The double-well ensemble behind criteria 6 and 7 is computed once and
shared.  Each criterion's result is also checked against the one gate rule:
moving any one condition's value just across its bound fails the criterion
and marks that condition, and only that one, in the printed line.
"""

import dataclasses
import math

from infoflow import checks


def _across(cond):
    """The nearest value on the failing side of the condition's bound."""
    if cond.op == "==":
        return not cond.bound
    if cond.op in ("<", ">"):
        return cond.bound
    return math.nextafter(cond.bound,
                          math.inf if cond.op == "<=" else -math.inf)


def _assert(result):
    print()
    print(result.line())
    assert result.passed, result.line()
    assert result.conditions
    for i, cond in enumerate(result.conditions):
        moved = list(result.conditions)
        moved[i] = cond._replace(value=_across(cond))
        mutant = dataclasses.replace(result, conditions=tuple(moved))
        line = mutant.line()
        assert not mutant.passed, line
        assert line.startswith("[FAIL]") and line.count("(fails)") == 1, line
        marked = str(moved[i])
        assert marked.endswith(" (fails)") and marked in line, line


def test_criterion_1_lqg_free_surprise():
    _assert(checks.check_lqg_free_surprise())


def test_criterion_2_kalman_bucy_identity():
    _assert(checks.check_kb_identity())


def test_criterion_3_entropy_production_grid():
    _assert(checks.check_entropy_production_grid())


def test_criterion_4_de_bruijn():
    _assert(checks.check_de_bruijn())


def test_criterion_5_lqg_grid_filter():
    _assert(checks.check_lqg_grid_filter())


def test_criterion_6_double_well_mwz():
    _assert(checks.check_double_well_mwz())


def test_criterion_7_tower_property():
    _assert(checks.check_tower_property())


def test_criterion_8a_feedback_lqg_invariance():
    _assert(checks.check_feedback_lqg())


def test_criterion_8b_feedback_mwz():
    _assert(checks.check_feedback_mwz())


def test_criterion_8c_zero_gain_bitwise():
    _assert(checks.check_zero_gain_bitwise())


def test_criterion_9a_gamma_properties():
    _assert(checks.check_gamma_properties())


def test_criterion_9b_mass_conservation():
    _assert(checks.check_mass_conservation())


def test_criterion_9c_zakai_linearity():
    _assert(checks.check_zakai_linearity())


def test_criterion_9d_ks_zakai_agreement():
    _assert(checks.check_ks_zakai_agreement())


def test_criterion_9e_cramer_rao():
    _assert(checks.check_cramer_rao())
