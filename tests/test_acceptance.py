"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one measured
pass/fail line per criterion (the same lines ``infoflow check all`` prints).
The double-well ensemble behind criteria 6 and 7 is computed once and
shared.
"""

from infoflow import checks


def _assert(result):
    print()
    print(result.line())
    assert result.passed, result.line()


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
