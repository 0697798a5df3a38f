"""Experiment harnesses: every table runs and key shape claims hold."""
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    fig16_overheads,
    fig26_rf,
    fig27_ddpg_generality,
    table4_defaults,
    table5_manual_pagerank,
    table6_stats,
    table7_lhs,
    table8_recommendations,
    table9_bo_svm,
    table10_overheads,
    tpch_relm,
)
from repro.experiments.__main__ import NAMES
from repro.experiments.tables import CACHE_GRID_KNOBS, Table, config_str
from repro.config import MemoryConfig
from repro.tuners.ddpg import WARMUP_STEPS

ROOT = Path(__file__).resolve().parents[1]


class TestTableContainer:
    def test_add_and_render(self):
        t = Table(title="T", columns=["a", "b"])
        t.add(a=1, b=2.5)
        md = t.to_markdown()
        assert "| a | b |" in md and "| 1 | 2.50 |" in md

    def test_add_rejects_missing_columns(self):
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(a=1)

    def test_config_str(self):
        s = config_str(MemoryConfig(2, 1, 0.4, 0.1, 3))
        assert s == "(2, 1, 0.4, 0.1, 3)"


class TestTable4:
    def test_matches_paper_exactly(self):
        t = table4_defaults.run()
        for row in t.rows:
            assert row["ours"] == row["paper"], row["parameter"]


class TestTable5:
    @pytest.fixture(scope="class")
    def table(self):
        return table5_manual_pagerank.run()

    def test_four_rows(self, table):
        assert len(table.rows) == 4

    def test_default_aborts_tuned_do_not(self, table):
        assert "aborted" in table.rows[0]["runtime"]
        for row in table.rows[1:]:
            assert "aborted" not in row["runtime"]

    def test_row3_fastest_as_in_paper(self, table):
        # Paper: lowering Cache Capacity to 0.4 gives the best runtime.
        runtimes = [float(r["runtime"].split(" ")[0]) for r in table.rows]
        assert min(runtimes[1:]) == runtimes[2]

    def test_hit_ratio_drops_with_cache(self, table):
        assert float(table.rows[2]["hit_ratio"]) < float(table.rows[1]["hit_ratio"])


class TestTable6:
    def test_all_stats_present(self):
        t = table6_stats.run()
        assert [r["notation"] for r in t.rows] == [
            "N", "M_h", "CPU_avg", "Disk_avg", "M_i", "M_c", "M_s", "M_u", "P", "H", "S",
        ]

    def test_mu_close_to_paper(self):
        t = table6_stats.run()
        mu = next(r for r in t.rows if r["notation"] == "M_u")
        ours = float(mu["ours"].rstrip("MB"))
        assert ours == pytest.approx(770, rel=0.15)


class TestTable7:
    def test_paper_samples_rendered(self):
        t = table7_lhs.run()
        assert len(t.rows) == 4
        assert t.rows[0]["paper (n, p, pool, NR)"] == "(1, 4, 0.6, 7)"

    def test_strata_checker(self):
        import numpy as np

        good = np.array([[0.1], [0.3], [0.6], [0.9]])
        bad = np.array([[0.1], [0.15], [0.6], [0.9]])
        assert table7_lhs.strata_covered(good)
        assert not table7_lhs.strata_covered(bad)


class TestTable9:
    def test_bootstrap_rows_match_paper(self):
        t = table9_bo_svm.run()
        for i in range(4):
            assert t.rows[i]["sample #"] == "0"
            assert t.rows[i]["config (n, p, cache, NR)"] == t.rows[i]["paper config"]

    def test_adaptive_samples_follow(self):
        t = table9_bo_svm.run()
        assert t.rows[4]["sample #"] == "1"
        assert len(t.rows) >= 10

    def test_rows_are_table8_svm_bo_session(self):
        sessions = table8_recommendations.sessions
        assert sessions("SVM") is sessions("SVM")
        rows = [r["config (n, p, cache, NR)"] for r in table9_bo_svm.run().rows]
        assert rows == [config_str(s.config, CACHE_GRID_KNOBS) for s in sessions("SVM")["BO"].samples]


class TestTable10:
    @pytest.fixture(scope="class")
    def measured(self):
        return table10_overheads.measure()

    def _ms(self, s):
        return float(s.rstrip("ms"))

    def test_relm_fit_cheapest(self, measured):
        # The paper's headline: RelM's analytical "fit" is orders of
        # magnitude below the learned models'.
        assert self._ms(measured["RelM"]["fit"]) < self._ms(measured["BO"]["fit"])
        assert self._ms(measured["RelM"]["fit"]) < self._ms(measured["GBO"]["fit"])

    def test_gbo_costs_more_than_bo(self, measured):
        # Added q-feature dimensionality (§6.3).
        assert self._ms(measured["GBO"]["probe"]) > self._ms(measured["BO"]["probe"])

    def test_ddpg_probe_fast(self, measured):
        assert self._ms(measured["DDPG"]["probe"]) < self._ms(measured["BO"]["probe"])

    def test_relm_stores_no_model(self, measured):
        assert measured["RelM"]["size"] == "-"

    def test_sessions_time_each_iteration(self):
        # One fit and one probe per adaptive BO/GBO iteration (after the
        # 4 Table 7 bootstrap probes); DDPG fits only once its replay
        # buffer holds a 16-transition batch and probes the actor only
        # after warm-up.
        sessions = table8_recommendations.sessions("SVM")
        for policy in ("BO", "GBO"):
            res = sessions[policy]
            assert len(res.fit_times) == len(res.probe_times) == res.iterations - 4
        assert sessions["DDPG"].fit_times == []
        on_a, _ = fig27_ddpg_generality.train_on_a()
        assert len(on_a.fit_times) == 15
        assert len(on_a.probe_times) == 30 - WARMUP_STEPS


class TestTpchRelm:
    def test_relm_saves_substantially(self):
        t = tpch_relm.run()
        saving = int(t.rows[1]["saving"].rstrip("%"))
        assert 25 <= saving <= 60  # paper: 40%


class TestFig16:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            fig16_overheads.train_to_top5("SVM", "BO-XGB", 0)

    def test_fig26_gp_session_hits_fig16_cache(self, monkeypatch):
        # Record how each figure spells its train_to_top5 calls, then
        # replay the first SVM BO call of each (seed 0, GP) for real.
        spellings = []
        for mod in (fig16_overheads, fig26_rf):
            calls = []
            monkeypatch.setattr(mod, "train_to_top5",
                                lambda *a, _calls=calls, **kw: _calls.append((a, kw)) or (1.0, 1))
            mod.run()
            spellings.append(next((a, kw) for a, kw in calls if a[:2] == ("SVM", "BO")))
        monkeypatch.undo()
        train = fig16_overheads.train_to_top5
        train.cache_clear()
        for a, kw in spellings:
            train(*a, **kw)
        info = train.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestFig27:
    def test_pretrained_close_to_native(self):
        t = fig27_ddpg_generality.run()
        by_agent = {r["agent"]: float(r["best runtime on B (min)"]) for r in t.rows}
        # §6.6: 5 cross-test samples suffice to land near the natively
        # trained agent's result.
        assert by_agent["DDPG_A^B"] <= 1.5 * by_agent["DDPG_B^B"]

    def test_runs_repeat(self):
        # The cross-cluster session trains a copy of the cached agent.
        assert fig27_ddpg_generality.run().rows == fig27_ddpg_generality.run().rows


class TestCli:
    def _run(self, *args):
        env = {**os.environ, "PYTHONPATH": "src"}
        return subprocess.run([sys.executable, "-m", "repro.experiments", *args],
                              cwd=ROOT, env=env, capture_output=True, text=True)

    def test_prints_one_table(self):
        out = self._run("table4_defaults")
        assert out.returncode == 0, out.stderr
        assert out.stdout == table4_defaults.run().to_markdown() + "\n"

    def test_entry_points_take_no_options(self):
        for name in NAMES:
            run = importlib.import_module(f"repro.experiments.{name}").run
            assert not inspect.signature(run).parameters, name
        assert not inspect.signature(table10_overheads.measure).parameters

    def test_package_import_leaves_numpy_unloaded(self):
        # The CLI pins OPENBLAS_NUM_THREADS after importing the package;
        # the pin only takes effect if numpy is not loaded yet.
        code = "import sys, repro.experiments; sys.exit('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_unknown_name_lists_valid_names(self):
        out = self._run("table99")
        assert out.returncode != 0
        assert "table4_defaults" in out.stderr and "fig16_overheads" in out.stderr
