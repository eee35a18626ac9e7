"""Tests for postponed-operator bookkeeping: Theorems 4.1 and 4.2 literally."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from semantics import Axis, LocalOpLedger, QuarterTurn

from repro.errors import GraphStateError


class TestAxis:
    def test_pauli_constructors(self):
        assert Axis.pauli("X").close_to(Axis(1, 0, 0))
        assert Axis.pauli("Y", -1).close_to(Axis(0, -1, 0))
        assert Axis.pauli("Z").close_to(Axis(0, 0, 1))

    def test_pauli_bad_label(self):
        with pytest.raises(GraphStateError):
            Axis.pauli("W")

    def test_pauli_bad_sign(self):
        with pytest.raises(GraphStateError):
            Axis.pauli("X", 2)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(GraphStateError):
            Axis(1, 1, 0)

    def test_equatorial(self):
        axis = Axis.equatorial(math.pi / 3)
        assert axis.is_equatorial
        assert math.isclose(axis.equatorial_angle, math.pi / 3)

    def test_equatorial_angle_of_z_raises(self):
        with pytest.raises(GraphStateError):
            Axis.pauli("Z").equatorial_angle

    def test_as_signed_pauli(self):
        assert Axis.pauli("Y", -1).as_signed_pauli() == ("Y", -1)
        assert Axis.equatorial(0.3).as_signed_pauli() is None

    def test_negated(self):
        assert Axis.pauli("X").negated().close_to(Axis.pauli("X", -1))

    def test_str_pauli(self):
        assert str(Axis.pauli("Z", -1)) == "-Z"


class TestTheorem41:
    """The four propagation identities of Theorem 4.1, verbatim."""

    def test_mz_through_uz_unchanged(self):
        for sign in (1, -1):
            op = QuarterTurn("Z", sign)
            assert op.conjugate_axis(Axis.pauli("Z")).close_to(Axis.pauli("Z"))

    def test_mz_through_ux_becomes_minus_sign_y(self):
        # M_Z U_X^± = U_X^± M[∓Y]
        for sign in (1, -1):
            op = QuarterTurn("X", sign)
            result = op.conjugate_axis(Axis.pauli("Z"))
            assert result.close_to(Axis.pauli("Y", -sign))

    @given(st.floats(0, 2 * math.pi - 1e-9), st.sampled_from([1, -1]))
    @settings(max_examples=40)
    def test_equatorial_through_uz(self, phi, sign):
        # M[cos phi X + sin phi Y] U_Z^± = U_Z^± M[±(cos phi Y − sin phi X)]
        op = QuarterTurn("Z", sign)
        result = op.conjugate_axis(Axis.equatorial(phi))
        target = Axis(
            sign * -math.sin(phi), sign * math.cos(phi), 0.0
        )
        assert result.close_to(target)

    @given(st.floats(0, 2 * math.pi - 1e-9), st.sampled_from([1, -1]))
    @settings(max_examples=40)
    def test_equatorial_through_ux(self, phi, sign):
        # M[cos phi X + sin phi Y] U_X^± = U_X^± M[cos phi X ± sin phi Z]
        op = QuarterTurn("X", sign)
        result = op.conjugate_axis(Axis.equatorial(phi))
        target = Axis(math.cos(phi), 0.0, sign * math.sin(phi))
        assert result.close_to(target)

    @given(st.sampled_from(["X", "Z"]), st.sampled_from([1, -1]))
    def test_inverse_undoes(self, pauli, sign):
        op = QuarterTurn(pauli, sign)
        axis = Axis.equatorial(0.7)
        assert op.inverse().conjugate_axis(op.conjugate_axis(axis)).close_to(axis)


class TestTheorem42:
    """Fusion-basis propagation: factor-wise conjugation of X⊗Z, Z⊗X."""

    def test_uz_on_both_qubits(self):
        # -> M[±1 Y1 Z2], M[±2 Z1 Y2]
        ledger = LocalOpLedger()
        ledger.record("q1", QuarterTurn("Z", +1))
        ledger.record("q2", QuarterTurn("Z", -1))
        (a1, b1), (a2, b2) = ledger.adjusted_fusion_bases("q1", "q2")
        assert a1.as_signed_pauli() == ("Y", +1)
        assert b1.as_signed_pauli() == ("Z", +1)
        assert a2.as_signed_pauli() == ("Z", +1)
        assert b2.as_signed_pauli() == ("Y", -1)

    def test_ux_on_both_qubits(self):
        # -> M[∓2 X1 Y2], M[∓1 Y1 X2] (as an unordered set of products)
        ledger = LocalOpLedger()
        ledger.record("q1", QuarterTurn("X", +1))
        ledger.record("q2", QuarterTurn("X", +1))
        (a1, b1), (a2, b2) = ledger.adjusted_fusion_bases("q1", "q2")
        assert a1.as_signed_pauli() == ("X", +1)
        assert b1.as_signed_pauli() == ("Y", -1)
        assert a2.as_signed_pauli() == ("Y", -1)
        assert b2.as_signed_pauli() == ("X", +1)

    def test_mixed_uz_ux(self):
        # U_Z on 1, U_X on 2 -> M[±1∓2 Y1 Y2], M[Z1 X2]
        ledger = LocalOpLedger()
        ledger.record("q1", QuarterTurn("Z", +1))
        ledger.record("q2", QuarterTurn("X", -1))
        (a1, b1), (a2, b2) = ledger.adjusted_fusion_bases("q1", "q2")
        assert a1.as_signed_pauli() == ("Y", +1)
        assert b1.as_signed_pauli() == ("Y", +1)  # ∓2 with sign2=-1 -> +Y
        assert a2.as_signed_pauli() == ("Z", +1)
        assert b2.as_signed_pauli() == ("X", +1)


class TestLedger:
    def test_empty_ledger_identity(self):
        ledger = LocalOpLedger()
        axis = Axis.equatorial(1.1)
        assert ledger.adjusted_basis("q", axis).close_to(axis)

    def test_record_local_complement_content(self):
        ledger = LocalOpLedger()
        ledger.record_local_complement("v", ["a", "b"])
        assert ledger.pending("v") == [QuarterTurn("X", -1)]
        assert ledger.pending("a") == [QuarterTurn("Z", +1)]
        assert ledger.pending("b") == [QuarterTurn("Z", +1)]
        assert len(ledger) == 3

    def test_ops_compose_in_reverse_order(self):
        """Later-recorded ops conjugate first: A' = U1† U2† A U2 U1."""
        ledger = LocalOpLedger()
        ledger.record("q", QuarterTurn("Z", +1))
        ledger.record("q", QuarterTurn("X", +1))
        result = ledger.adjusted_basis("q", Axis.pauli("Z"))
        # U_X first: Z -> -Y; then U_Z: -Y -> -(-X)?  rotate (0,-1,0) about z
        # by +90°: (1, 0, 0) = +X.
        assert result.as_signed_pauli() == ("X", +1)

    def test_consume_clears(self):
        ledger = LocalOpLedger()
        ledger.record("q", QuarterTurn("Z", 1))
        ops = ledger.consume("q")
        assert len(ops) == 1
        assert ledger.pending("q") == []

    def test_double_lc_cancels_geometrically(self):
        """Recording LC twice leaves every measurement basis unchanged."""
        ledger = LocalOpLedger()
        for _ in range(2):
            ledger.record_local_complement("v", ["a"])
        for axis in (Axis.pauli("X"), Axis.pauli("Y"), Axis.pauli("Z")):
            adjusted = ledger.adjusted_basis("v", axis)
            # U_X^- twice = a half turn about X: flips Y and Z, fixes X.
            expected = Axis(axis.x, -axis.y, -axis.z)
            assert adjusted.close_to(expected)
