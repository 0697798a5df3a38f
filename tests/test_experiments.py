"""Experiment harnesses: every table runs and key shape claims hold."""
import ast
import hashlib
import importlib
import inspect
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import (
    common,
    fig16_overheads,
    fig26_rf,
    fig27_ddpg_generality,
    sessions,
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
from repro.experiments.tables import CACHE_GRID_KNOBS, Table, config_str, knob_tuple, minutes
from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MemoryConfig, max_resource_allocation
from repro.core import relm_recommend
from repro.profiler import ProfileStats
from repro.simcluster import simulate
from repro.tuners import exhaustive
from repro.tuners.ddpg import WARMUP_STEPS
from repro.workloads import SUITE, workload_model
from repro.workloads.base import MODELS

ROOT = Path(__file__).resolve().parents[1]


class TestTableContainer:
    def test_add_and_render(self):
        # A row is its cells in column order; readers look cells up by column.
        t = Table(title="T", columns=["a", "b"])
        t.add(1, 2.5)
        md = t.to_markdown()
        assert "| a | b |" in md and "| 1 | 2.50 |" in md
        assert t.rows == [{"a": 1, "b": 2.5}]

    def test_add_rejects_missing_columns(self):
        # A row must fill every column.
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)
        assert t.rows == []

    def test_add_rejects_extra_cells(self):
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(1, 2.5, 3)
        assert t.rows == []

    def test_rows_come_from_add(self):
        # A table starts empty; every row goes through add's cell count check.
        (rows,) = (f for f in fields(Table) if f.name == "rows")
        assert not rows.init

    def test_config_str(self):
        s = config_str(MemoryConfig(2, 1, 0.4, 0.1, 3))
        assert s == "(2, 1, 0.4, 0.1, 3)"

    def test_knob_tuple(self):
        # The paper's tuples print as the configs they sit next to.
        assert knob_tuple((4, 2, 0, 0.23, 1)) == "(4, 2, 0, 0.23, 1)"

    def test_minutes_marks_aborted_runs(self):
        # Table 5's default PageRank run aborts; lowering Cache Capacity
        # to 0.4 runs clean.
        model = workload_model("PageRank")
        aborted = simulate(model, MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A)
        clean = simulate(model, MemoryConfig(1, 2, 0.4, 0.0, 2), CLUSTER_A)
        assert aborted.aborted and not clean.aborted
        assert minutes(aborted, 0) == f"{aborted.runtime_min:.0f} (aborted)"
        assert minutes(clean) == f"{clean.runtime_min:.1f}"


class TestDefaultConfig:
    @pytest.mark.parametrize("cluster", [CLUSTER_A, CLUSTER_B], ids=["A", "B"])
    def test_only_pagerank_moves_its_pool_to_cache(self, cluster):
        # The rule reads M_s = 0 off the model; of the six, only
        # PageRank has no shuffle (Table 6).
        mra = max_resource_allocation(cluster)
        for name in MODELS:
            expected = replace(mra, cache_capacity=0.6, shuffle_capacity=0.0) if name == "PageRank" else mra
            assert common.default_config(name, cluster) == expected, name


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

    def test_rows_name_every_statistic_once(self):
        # A statistic added to ProfileStats cannot be left out of Table 6.
        named = [f.name for f in fields(ProfileStats) if f.name != "from_full_gc"]
        assert sorted(row[3] for row in table6_stats.ROWS) == sorted(named)


class TestTable7:
    def test_paper_samples_rendered(self):
        t = table7_lhs.run()
        assert len(t.rows) == 4
        assert t.rows[0]["paper (n, p, pool, NR)"] == "(1, 4, 0.6, 7)"


class TestTable8:
    def test_recommendations_are_bit_identical(self):
        # Each policy's recommended configuration and the run Table 8
        # reports for it, on all five apps, hashed down to the bit.
        lines = []
        for name in table8_recommendations.SUITE:
            for policy, run in table8_recommendations.recommend_all(name).items():
                lines.append(f"{name} {policy} {run.config!r} {run.runtime_sec.hex()} "
                             f"{run.aborted} {run.failed_containers}")
        assert len(lines) == 25
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "96a45b3909f84c95daaf646410a6dede4f28e382d4d80f085aeb7285c6d6985c"
        )

    def test_relm_row_is_the_runner_session(self):
        # RelM's recommendation is simulated once per process, by its
        # session, like the four searches' best runs.
        for name in table8_recommendations.SUITE:
            assert (table8_recommendations.recommend_all(name)["RelM"]
                    is sessions.session(name, "A", "RelM", 0, "cherrypick")[0].best)


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
        bo = sessions.session("SVM", "A", "BO", 0, "cherrypick")
        assert bo is sessions.session("SVM", "A", "BO", 0, "cherrypick")
        assert table8_recommendations.recommend_all("SVM")["BO"] is bo[0].best
        rows = [r["config (n, p, cache, NR)"] for r in table9_bo_svm.run().rows]
        assert rows == [config_str(s.config, CACHE_GRID_KNOBS) for s in bo[0].samples]


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

    def test_timed_cells_take_five_calls(self):
        # Every timed cell is a median over the same number of calls.
        assert list(inspect.signature(table10_overheads._time).parameters) == ["fn"]

    def test_sessions_time_each_iteration(self):
        # One fit and one probe per adaptive BO/GBO iteration (after the
        # 4 Table 7 bootstrap probes); DDPG fits only once its replay
        # buffer holds a 16-transition batch and probes the actor only
        # after warm-up.
        for policy in ("BO", "GBO"):
            res, _ = sessions.session("SVM", "A", policy, 0, "cherrypick")
            assert len(res.fit_times) == len(res.probe_times) == res.iterations - 4
        assert sessions.session("SVM", "A", "DDPG", 0, 10)[0].fit_times == []
        on_a, _ = sessions.session("SVM", "A", "DDPG", 0, fig27_ddpg_generality.TRAIN_STEPS)
        assert len(on_a.fit_times) == 15
        assert len(on_a.probe_times) == 30 - WARMUP_STEPS


class TestTpchRelm:
    def test_relm_saves_substantially(self):
        t = tpch_relm.run()
        saving = int(t.rows[1]["saving"].rstrip("%"))
        assert 25 <= saving <= 60  # paper: 40%


class TestSessionRunner:
    def test_only_the_runner_calls_the_tuners(self):
        # Each §6.2 protocol (bootstrap, caps, stop) is spelled once: in
        # sessions.py, which also runs the default and RelM's
        # recommendation. The §6.1 sweep and the profile are in
        # common.py, Figure 27's cross test hands a copy of a trained
        # agent to DDPG, Table 10 times RelM, Table 5 runs its four
        # hand-set configurations and Figure 21 counts RelM's profiling runs.
        calls = []
        for path in sorted((ROOT / "src/repro/experiments").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in ("bayesian_optimize", "guided_bayesian_optimize", "exhaustive_search",
                                "ddpg_tune", "simulate", "relm_recommend", "profile_with_full_gc"):
                        calls.append((path.name, name))
        assert sorted(calls) == [
            ("common.py", "exhaustive_search"),
            ("common.py", "profile_with_full_gc"),
            ("fig27_ddpg_generality.py", "ddpg_tune"),
            ("sessions.py", "bayesian_optimize"),
            ("sessions.py", "ddpg_tune"),
            ("sessions.py", "guided_bayesian_optimize"),
            ("sessions.py", "relm_recommend"),
            ("table10_overheads.py", "relm_recommend"),
            ("table5_manual_pagerank.py", "simulate"),
            ("tpch_relm.py", "profile_with_full_gc"),
        ]

    def test_only_tables_formats_runtime_minutes(self):
        # A runtime cell follows one rule, tables.minutes; no experiment
        # reads runtime_min itself.
        readers = sorted({
            path.name
            for path in (ROOT / "src/repro/experiments").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "runtime_min"
        })
        assert readers == ["tables.py"]

    def test_sweeps_the_grid_once_per_app(self, monkeypatch):
        # Table 8's Exhaustive row and the top-5 % target read one sweep.
        calls = []
        real = exhaustive.exhaustive_search

        def counting(objective, **kw):
            calls.append(objective.model.name)
            return real(objective, **kw)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("repro.") and getattr(mod, "exhaustive_search", None) is real:
                monkeypatch.setattr(mod, "exhaustive_search", counting)
        common.grid_runtimes.cache_clear()
        sessions._search.cache_clear()
        for name in SUITE:
            table8_recommendations.recommend_all(name)
            common.top5_threshold(name, "A", 0)
        assert calls == list(SUITE)


class TestPackageExports:
    @staticmethod
    def _imported_through(package):
        """The names that src/, tests/ and perfbench/ import from
        ``package`` itself (``from repro.core import x``, or ``from ..core
        import x`` inside src/), its submodules left out."""
        pkg_dir = ROOT / "src" / Path(*package.split("."))
        names = set()
        for top in ("src", "tests", "perfbench"):
            for path in sorted((ROOT / top).rglob("*.py")):
                parts = path.relative_to(ROOT / "src").with_suffix("").parts if top == "src" else None
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.ImportFrom):
                        continue
                    if node.level:
                        if parts is None:
                            continue
                        here = parts[:-1]  # a module's package; an __init__'s own package
                        base = list(here[:len(here) - node.level + 1])
                        target = ".".join(base + ([node.module] if node.module else []))
                    else:
                        target = node.module
                    if target == package:
                        names |= {a.name for a in node.names
                                  if not (pkg_dir / f"{a.name}.py").exists() and not (pkg_dir / a.name).is_dir()}
        return names

    @pytest.mark.parametrize("package", ["repro.simcluster", "repro.core", "repro.profiler",
                                         "repro.tuners", "repro.experiments"])
    def test_exports_only_what_is_imported_through_it(self, package):
        # A package __init__ re-exports a name only for a reader that
        # imports it through the package.
        exported = set(getattr(importlib.import_module(package), "__all__", []))
        assert exported == self._imported_through(package)


class TestFig16:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            sessions.session("SVM", "A", "BO-XGB", 0, "top5")

    def test_default_and_relm_are_one_run_sessions(self):
        for policy in ("Default", "RelM"):
            res, agent = sessions.session("SVM", "A", policy, 0, "top5")
            assert agent is None and res.iterations == 1
            assert res.total_observation_sec == res.best.runtime_sec
        assert sessions.session("SVM", "A", "Default", 0, "top5")[0].best.config == common.default_config("SVM")
        assert (sessions.session("SVM", "A", "RelM", 0, "top5")[0].best.config
                == relm_recommend(common.profiled_stats("SVM", "A", 0), CLUSTER_A)[0])
        # The stop rule does not apply: Figure 16 (RelM's cost) and
        # Figure 17 (the denominator) read one Default session.
        assert (sessions.session("SVM", "A", "Default", 0, "top5")[0]
                is sessions.session("SVM", "A", "Default", 0, "cherrypick")[0])

    def test_fig26_gp_session_hits_fig16_cache(self, monkeypatch):
        # Record how each figure spells its session calls, then replay
        # the first SVM BO call of each (seed 0, GP) for real.
        spellings = []
        stub = SimpleNamespace(total_observation_sec=1.0, iterations=1)
        for mod in (fig16_overheads, fig26_rf):
            calls = []
            monkeypatch.setattr(mod, "session",
                                lambda *a, _calls=calls, **kw: _calls.append((a, kw)) or (stub, None))
            mod.run()
            spellings.append(next((a, kw) for a, kw in calls if a[:3] == ("SVM", "A", "BO")))
        monkeypatch.undo()
        sessions._search.cache_clear()
        for a, kw in spellings:
            sessions.session(*a, **kw)
        info = sessions._search.cache_info()
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

    def test_simulator_side_leaves_spark_unloaded(self):
        # The experiments, tuners, RelM, profiler and simulator read the
        # workload models only; the Spark stack loads with the job modules.
        modules = [f"repro.experiments.{name}" for name in NAMES] + [
            *(f"repro.tuners.{t}" for t in ("bo", "gbo", "ddpg", "rf", "exhaustive", "lhs")),
            "repro.core", "repro.profiler", "repro.simcluster", "repro.workloads",
        ]
        code = ("import importlib, sys\n"
                f"for m in {modules!r}: importlib.import_module(m)\n"
                "loaded = [m for m in ('pyspark', 'pandas', 'pyarrow', 'duckdb') if m in sys.modules]\n"
                "sys.exit(f'loaded: {loaded}' if loaded else 0)")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_unknown_name_lists_valid_names(self):
        out = self._run("table99")
        assert out.returncode != 0
        assert "table4_defaults" in out.stderr and "fig16_overheads" in out.stderr
