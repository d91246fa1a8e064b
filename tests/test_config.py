"""Tests that the configuration presets encode paper Tables I and II."""

import pytest

from repro.core import FIG11_ARCHES, FIG13_ARCHES, config_for


class TestTable1WidthParams:
    def test_8wide_core(self):
        cfg = config_for("ooo", width=8)
        assert cfg.issue_width == 8
        assert cfg.decode_width == 4
        assert cfg.frequency_ghz == 3.4
        assert cfg.rob_size == 224
        assert cfg.lq_size == 72
        assert cfg.sq_size == 56
        assert cfg.phys_int == 180
        assert cfg.phys_fp == 168
        assert cfg.recovery_penalty == 11

    def test_4wide_core(self):
        cfg = config_for("ooo", width=4)
        assert cfg.frequency_ghz == 2.5
        assert cfg.rob_size == 128
        assert cfg.scheduler.iq_size == 64

    def test_2wide_core(self):
        cfg = config_for("ooo", width=2)
        assert cfg.frequency_ghz == 2.0
        assert cfg.rob_size == 48
        assert cfg.scheduler.iq_size == 32

    def test_inorder_uses_smaller_penalty_and_no_mdp(self):
        cfg = config_for("inorder")
        assert cfg.recovery_penalty == 8
        assert not cfg.mdp_enabled
        assert config_for("ooo").mdp_enabled

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            config_for("ooo", width=6)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            config_for("tomasulo")


class TestTable2SchedulingWindows:
    def test_ces_8wide(self):
        sched = config_for("ces").scheduler
        assert sched.kind == "ces"
        assert sched.num_piqs == 8
        assert sched.piq_size == 12
        assert not sched.mda_steering

    def test_ces_mda_variant(self):
        assert config_for("ces_mda").scheduler.mda_steering

    def test_casino_8wide(self):
        sched = config_for("casino").scheduler
        assert sched.casino_queues == (8, 40, 40, 8)
        assert sched.casino_window == 4

    def test_casino_narrow_widths(self):
        assert config_for("casino", width=4).scheduler.casino_queues == (6, 52, 6)
        assert config_for("casino", width=2).scheduler.casino_queues == (4, 28)

    def test_fxa_iq_is_half_of_baseline(self):
        assert config_for("fxa").scheduler.iq_size == 48
        assert config_for("fxa", width=4).scheduler.iq_size == 32

    def test_ballerino_8wide(self):
        sched = config_for("ballerino").scheduler
        assert sched.siq_size == 8
        assert sched.num_piqs == 7
        assert sched.piq_size == 12
        assert sched.mda_steering and sched.piq_sharing
        assert not sched.ideal_sharing

    def test_ballerino12(self):
        assert config_for("ballerino12").scheduler.num_piqs == 11

    def test_step_variants(self):
        step1 = config_for("ballerino_step1").scheduler
        assert not step1.mda_steering and not step1.piq_sharing
        step2 = config_for("ballerino_step2").scheduler
        assert step2.mda_steering and not step2.piq_sharing
        ideal = config_for("ballerino_ideal").scheduler
        assert ideal.piq_sharing and ideal.ideal_sharing

    def test_oldest_first_variant(self):
        assert config_for("ooo_oldest").scheduler.oldest_first
        assert not config_for("ooo").scheduler.oldest_first

    def test_piq_overrides_for_sweeps(self):
        cfg = config_for("ballerino", num_piqs=11, piq_size=24)
        assert cfg.scheduler.num_piqs == 11
        assert cfg.scheduler.piq_size == 24
        assert "p11" in cfg.name and "s24" in cfg.name

    def test_window_entry_budgets(self):
        # Table II invariant: every non-FXA design gets ~the same entry budget
        from repro.energy.model import _window_entries

        budget = {
            arch: _window_entries(config_for(arch))
            for arch in ("ooo", "ces", "casino", "fxa", "ballerino")
        }
        assert budget["ooo"] == 96
        assert budget["ces"] == 96
        assert budget["casino"] == 96
        assert budget["ballerino"] == 92  # 8 S-IQ + 7x12 (paper's Table II)
        assert budget["fxa"] < budget["ooo"]  # half-size back end


class TestFigureLists:
    def test_fig11_covers_all_designs(self):
        for arch in FIG11_ARCHES:
            config_for(arch)  # must not raise

    def test_fig13_step_order(self):
        assert FIG13_ARCHES[0] == "ces"
        assert FIG13_ARCHES[-1] == "ballerino_ideal"
        for arch in FIG13_ARCHES:
            config_for(arch)

    def test_config_names_unique(self):
        names = {config_for(a).name for a in FIG11_ARCHES}
        assert len(names) == len(FIG11_ARCHES)
