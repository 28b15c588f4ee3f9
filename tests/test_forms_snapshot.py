"""Unit tests for snapshot differential forms (Eq. 7, Theorem 4.1)."""

import pytest

from repro.errors import QueryError
from repro.forms import SnapshotForm


class TestSnapshotForm:
    def test_record_and_read(self):
        form = SnapshotForm()
        form.record("u", "v")
        assert form.xi_plus(("u", "v")) == 1
        assert form.xi_minus(("u", "v")) == 0
        assert form.xi_plus(("v", "u")) == 0
        assert form.xi_minus(("v", "u")) == 1

    def test_net_antisymmetric(self):
        form = SnapshotForm()
        form.record("u", "v", 3)
        form.record("v", "u", 1)
        assert form.net(("u", "v")) == 2
        assert form.net(("v", "u")) == -2

    def test_negative_count_rejected(self):
        with pytest.raises(QueryError):
            SnapshotForm().record("u", "v", -1)

    def test_theorem_4_1_example(self):
        """Fig. 8b: object T moves from face sigma to tau across edge c.

        With the directed-edge convention (tail, head) = crossing toward
        the head's face, the count inside tau is +1 and sigma nets 0
        after T previously entered sigma from outside.
        """
        form = SnapshotForm()
        # T enters sigma from the external world across edge (ext, s).
        form.record("ext", "s")
        # T moves from sigma to tau.
        form.record("s", "t")
        # Count in tau: boundary = the single inward edge (s, t).
        assert form.integrate_edges([("s", "t")]) == 1
        # Count in sigma: inward edges (ext, s) and (t, s).
        assert form.integrate_edges([("ext", "s"), ("t", "s")]) == 0
        # Count in the union {sigma, tau}: inward edge (ext, s) only.
        assert form.integrate_edges([("ext", "s")]) == 1

    def test_double_counting_cancels(self):
        """An object exiting and re-entering is counted once (§3.1.2)."""
        form = SnapshotForm()
        form.record("out", "in")   # enter
        form.record("in", "out")   # leave
        form.record("out", "in")   # re-enter
        assert form.integrate_edges([("out", "in")]) == 1

    def test_integrate_with_weights(self):
        form = SnapshotForm()
        form.record("a", "b", 2)
        assert form.integrate([(("a", "b"), 2)]) == 4
        assert form.integrate([(("b", "a"), 1)]) == -2

    def test_counters(self):
        form = SnapshotForm()
        form.record("a", "b")
        form.record("b", "a")
        form.record("c", "d", 5)
        assert form.edge_count == 2
