"""Unit tests for the MPI_T shim and the pml_monitoring component."""

import numpy as np
import pytest

from repro.simmpi.mpit import MpiToolInterface, MpitError
from repro.simmpi.pml_monitoring import CATEGORIES, PVAR_NAMES, PmlMonitoring


class TestMpiT:
    def test_cvar_roundtrip(self):
        iface = MpiToolInterface()
        box = {"v": 0}
        iface.register_cvar("knob", lambda: box["v"],
                            lambda x: box.update(v=x))
        iface.cvar_write("knob", 3)
        assert iface.cvar_read("knob") == 3
        assert "knob" in iface.cvar_names()

    def test_duplicate_registration_rejected(self):
        iface = MpiToolInterface()
        iface.register_cvar("k", lambda: 0, lambda x: None)
        with pytest.raises(MpitError):
            iface.register_cvar("k", lambda: 0, lambda x: None)
        iface.register_pvar("p", lambda r: np.zeros(1))
        with pytest.raises(MpitError):
            iface.register_pvar("p", lambda r: np.zeros(1))

    def test_unknown_variable(self):
        iface = MpiToolInterface()
        with pytest.raises(MpitError):
            iface.cvar_read("missing")
        sess = iface.pvar_session_create()
        with pytest.raises(MpitError):
            sess.handle_alloc("missing", 0)

    def test_pvar_handle_reads_snapshot_copy(self):
        iface = MpiToolInterface()
        data = np.zeros(4, dtype=np.uint64)
        iface.register_pvar("counter", lambda r: data)
        sess = iface.pvar_session_create()
        h = sess.handle_alloc("counter", 0)
        h.start()
        snap = h.read()
        data[0] = 42
        assert snap[0] == 0  # earlier read unaffected
        assert h.read()[0] == 42

    def test_freed_session_rejects_use(self):
        iface = MpiToolInterface()
        iface.register_pvar("c", lambda r: np.zeros(1))
        sess = iface.pvar_session_create()
        h = sess.handle_alloc("c", 0)
        sess.free()
        with pytest.raises(MpitError):
            h.read()
        with pytest.raises(MpitError):
            sess.handle_alloc("c", 0)

    def test_init_finalize_balance(self):
        iface = MpiToolInterface()
        iface.init_thread()
        assert iface.initialized
        iface.finalize()
        assert not iface.initialized
        with pytest.raises(MpitError):
            iface.finalize()


class TestPmlMonitoring:
    def test_disabled_by_default(self):
        pml = PmlMonitoring(4)
        assert not pml.enabled
        assert pml.record(0, 1, 100, "p2p") == 0
        assert pml.totals("p2p") == (0, 0)

    def test_mode1_collapses_categories(self):
        pml = PmlMonitoring(4)
        pml.set_mode(1)
        assert not pml.distinguishes_internal
        pml.record(0, 1, 100, "coll")
        assert pml.totals("p2p") == (1, 100)
        assert pml.totals("coll") == (0, 0)

    def test_mode2_distinguishes(self):
        pml = PmlMonitoring(4)
        pml.set_mode(2)
        pml.record(0, 1, 100, "coll")
        pml.record(0, 1, 50, "p2p")
        pml.record(2, 3, 10, "osc")
        assert pml.totals("coll") == (1, 100)
        assert pml.totals("p2p") == (1, 50)
        assert pml.totals("osc") == (1, 10)

    def test_zero_length_counts(self):
        pml = PmlMonitoring(2)
        pml.set_mode(2)
        pml.record(0, 1, 0, "coll")
        assert pml.totals("coll") == (1, 0)

    def test_matrix_indexing(self):
        pml = PmlMonitoring(3)
        pml.set_mode(2)
        pml.record(1, 2, 8, "p2p")
        assert pml.counts["p2p"][1, 2] == 1
        assert pml.sizes["p2p"][1, 2] == 8
        assert pml.counts["p2p"][2, 1] == 0

    def test_reset(self):
        pml = PmlMonitoring(2)
        pml.set_mode(1)
        pml.record(0, 1, 5, "p2p")
        pml.reset()
        assert pml.totals("p2p") == (0, 0)

    def test_bad_category(self):
        pml = PmlMonitoring(2)
        pml.set_mode(1)
        with pytest.raises(ValueError):
            pml.record(0, 1, 5, "weird")

    def test_bad_mode(self):
        pml = PmlMonitoring(2)
        with pytest.raises(ValueError):
            pml.set_mode(-1)

    def test_pvar_registration(self):
        iface = MpiToolInterface()
        pml = PmlMonitoring(2, mpit=iface)
        assert iface.cvar_read("pml_monitoring_enable") == 0
        iface.cvar_write("pml_monitoring_enable", 2)
        assert pml.mode == 2
        for cat in CATEGORIES:
            cname, sname = PVAR_NAMES[cat]
            assert cname in iface.pvar_names()
            assert sname in iface.pvar_names()

    def test_pvar_rows_are_per_process(self):
        iface = MpiToolInterface()
        pml = PmlMonitoring(3, mpit=iface)
        pml.set_mode(2)
        pml.record(1, 0, 64, "p2p")
        sess = iface.pvar_session_create()
        h0 = sess.handle_alloc("pml_monitoring_messages_size", 0)
        h1 = sess.handle_alloc("pml_monitoring_messages_size", 1)
        assert h0.read().sum() == 0
        assert h1.read()[0] == 64
