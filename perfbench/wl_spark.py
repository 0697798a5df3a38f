"""Workload ``spark``: the real PySpark jobs on local Spark.

One pass runs the eleven jobs at scale factor ``SF``: WordCount,
SortByKey, K-means, SVM and PageRank (each generating its input inside
the job, as the workload modules do) and the six TPC-H-lite queries over
tables generated in set-up. Each result is collected to pandas inside
the timed region. The first pass runs on a cold JVM and is not part of
``wall_s``. ``overhead_pct`` is the time the jobs spend generating their
own input (the ``synth_data`` calls) as a share of the rest. Oracle
checks (DuckDB over the same inputs, using the SQL the tests use, or a
numpy/pandas replay where the job is iterative) run outside the timed
region on the cold pass (or the traced pass), and every later pass must
return the same rows.

``--seed`` seeds every input generator.
"""
from __future__ import annotations

import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile

import duckdb
import numpy as np
import pandas as pd

from repro import synth_data
from repro.oracle import assert_equivalent
from repro.workloads import kmeans, pagerank, sortbykey, svm, tpch, wordcount

from common import SPARK_JOBS, Result, median_setup, passes, per_layer, tail, timed
from spans import Stopwatch, Tracer, patched

SF = 0.002
THREADS = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "512m"
SHUFFLE_PARTITIONS = "64"  # the tests' session setting
ITERATIONS = 3
TABLES = ("lineitem", "orders", "customer", "part")
GENERATORS = ("random_text", "uniform_keys", "clustered_points", "labeled_examples",
              "graph_edges") + TABLES
PATCHES = tuple((synth_data, g, f"synth_data.{g}") for g in GENERATORS)


class Collected:
    """A collected result, shaped for ``assert_equivalent``."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf


def start_session(work_dir: str):
    """A local SparkSession whose scratch files stay under ``work_dir``."""
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # spark-submit first runs a small launcher JVM, which reads only this.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{THREADS}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
        # A heap fixed at its maximum size makes the JVM's peak RSS repeatable.
        "--driver-java-options " + shlex.quote(
            f"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(work_dir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM, which exits when its stdin closes."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def job_seeds(seed: int) -> dict[str, int]:
    names = ("WordCount", "SortByKey", "K-means", "SVM", "PageRank") + TABLES
    return {n: 10 * seed + i for i, n in enumerate(names)}


def make_inputs(spark, seeds: dict) -> dict:
    """Spark TPC-H tables for the queries; pandas copies of every input for
    the oracles and the row counts."""
    tables = {t: getattr(synth_data, t)(spark, sf=SF, seed=seeds[t]) for t in TABLES}
    pdf = {t: df.toPandas() for t, df in tables.items()}
    for name, module in (("WordCount", wordcount), ("SortByKey", sortbykey), ("K-means", kmeans),
                         ("SVM", svm), ("PageRank", pagerank)):
        pdf[name] = module.input_df(spark, sf=SF, seed=seeds[name]).toPandas()
    return {"tables": tables, "pdf": pdf}


def input_rows(name: str, pdf: dict) -> int:
    if name.startswith("TPC-H."):
        sql = tpch.QUERIES[name.split(".", 1)[1]]
        return sum(len(pdf[t]) for t in TABLES if re.search(rf"\b{t}\b", sql))
    return len(pdf[name])


def jobs(spark, inputs: dict, seeds: dict) -> dict:
    tables = inputs["tables"]

    def svm_job():
        w, acc = svm.run(spark, sf=SF, iterations=ITERATIONS, seed=seeds["SVM"])
        return w, acc.toPandas()

    out = {
        "WordCount": lambda: wordcount.run(spark, sf=SF, seed=seeds["WordCount"]).toPandas(),
        "SortByKey": lambda: sortbykey.run(spark, sf=SF, seed=seeds["SortByKey"]).toPandas(),
        "K-means": lambda: kmeans.run(spark, sf=SF, iterations=ITERATIONS,
                                      seed=seeds["K-means"]).toPandas(),
        "SVM": svm_job,
        "PageRank": lambda: pagerank.run(spark, sf=SF, iterations=ITERATIONS,
                                         seed=seeds["PageRank"]).toPandas(),
    }
    for name in SPARK_JOBS[5:]:
        q = name.split(".", 1)[1]
        out[name] = lambda q=q: tpch.run_query(spark, q, tables).toPandas()
    return out


def run_pass(spark, job_fns: dict, result: Result, tracer: Tracer | None = None) -> dict:
    """Run every job once: name -> (seconds, Spark jobs launched, result)."""
    sc = spark.sparkContext
    out = {}
    for name, fn in job_fns.items():
        result.attempted += 1
        group = f"perfbench-{result.attempted}"
        sc.setJobGroup(group, name)
        try:
            if tracer is not None:
                fn = tracer.wrap(f"workloads.{name}", fn)
            wall, res = timed(fn)
        except Exception as e:  # a failed job is counted, the pass goes on
            result.fail(f"{name}: {type(e).__name__}: {e}")
            continue
        out[name] = (wall, len(sc.statusTracker().getJobIdsForGroup(group)), res)
    return out


# --- Oracles -------------------------------------------------------------


def lloyd(points: pd.DataFrame, centers: np.ndarray, iterations: int) -> np.ndarray:
    """Lloyd's iterations in numpy, with ``kmeans.step``'s rules: ties go to
    the lower center index and an empty cluster keeps its center."""
    x = points[[f"x{i}" for i in range(kmeans.DIM)]].to_numpy()
    for _ in range(iterations):
        assigned = ((x[:, None, :] - centers[None]) ** 2).sum(axis=-1).argmin(axis=1)
        new = centers.copy()
        for j in range(len(centers)):
            if (assigned == j).any():
                new[j] = x[assigned == j].mean(axis=0)
        centers = new
    return centers


def svm_weights(examples: pd.DataFrame, iterations: int) -> np.ndarray:
    """Batch subgradient descent replayed with the tests' DuckDB gradient SQL."""
    con = duckdb.connect()
    try:
        con.register("examples", examples)
        w = np.zeros(svm.DIM)
        for _ in range(iterations):
            g = con.execute(svm.gradient_oracle_sql(w)).fetchdf().iloc[0].to_numpy()
            w = w - svm.LR * (g + svm.REG * w)
    finally:
        con.close()
    return w


def svm_accuracy_sql(w: np.ndarray) -> str:
    dot = " + ".join(f"x{i}*({w[i]})" for i in range(svm.DIM))
    return (f"SELECT y, count(*) AS n, "
            f"sum(CASE WHEN (CASE WHEN {dot} >= 0 THEN 1.0 ELSE -1.0 END) = y THEN 1 ELSE 0 END) "
            f"AS n_correct FROM examples GROUP BY y")


def pagerank_reference(edges: pd.DataFrame, iterations: int) -> pd.DataFrame:
    """The PageRank update rule in pandas (as the workload tests state it)."""
    nodes = pd.unique(pd.concat([edges.src, edges.dst]))
    ranks = pd.Series(1.0, index=nodes)
    deg = edges.groupby("src").size()
    for _ in range(iterations):
        contrib = edges.assign(c=ranks[edges.src].values / deg[edges.src].values)
        s = contrib.groupby("dst").c.sum()
        ranks = pd.Series(1.0 - pagerank.DAMPING, index=nodes).add(
            pagerank.DAMPING * s, fill_value=0.0)[nodes]
    return pd.DataFrame({"node": nodes, "rank": ranks.values})


def check(name: str, res, pdf: dict) -> None:
    """Raise AssertionError if ``res`` is not the job's correct output."""
    if name == "WordCount":
        assert_equivalent(Collected(res), wordcount.ORACLE_SQL, lines=pdf[name])
        assert res.cnt.sum() == 10 * len(pdf[name]), "word total is not 10 per line"
    elif name == "SortByKey":
        assert_equivalent(Collected(res), sortbykey.ORACLE_SQL, pairs=pdf[name])
        check_sorted(res)
    elif name == "K-means":
        centers = lloyd(pdf[name], kmeans.initial_centers(), ITERATIONS)
        assert_equivalent(Collected(res), kmeans.oracle_sql(centers),
                          points=pdf[name].drop(columns="c"))
    elif name == "SVM":
        w, acc = res
        ref = svm_weights(pdf[name], ITERATIONS)
        assert np.allclose(w, ref, rtol=0, atol=1e-9), f"weights {w} vs replay {ref}"
        assert_equivalent(Collected(acc), svm_accuracy_sql(w), examples=pdf[name])
    elif name == "PageRank":
        expected = pagerank_reference(pdf[name], ITERATIONS)
        assert_equivalent(Collected(res), "SELECT node, rank FROM expected", expected=expected)
    else:
        q = name.split(".", 1)[1]
        assert_equivalent(Collected(res), tpch.QUERIES[q], **{t: pdf[t] for t in TABLES})


def check_sorted(res: pd.DataFrame) -> None:
    keys = list(zip(res.k, res.v))
    assert keys == sorted(keys), "SortByKey output is not ordered by (k, v)"


def canonical(res) -> list:
    """Order-free, rounded form of a job result, for pass-to-pass equality."""
    frames = [pd.DataFrame({"w": res[0]}), res[1]] if isinstance(res, tuple) else [res]
    out = []
    for pdf in frames:
        pdf = pdf[sorted(pdf.columns)].round(9)
        out.append(pdf.sort_values(list(pdf.columns)).reset_index(drop=True))
    return out


def check_pass(out: dict, reference: dict, what: str, result: Result) -> None:
    for name, (_, _, res) in out.items():
        if name not in reference:
            continue
        try:
            if name == "SortByKey":
                check_sorted(res)
            for a, b in zip(canonical(res), canonical(reference[name][2])):
                pd.testing.assert_frame_equal(a, b, check_dtype=False)
        except AssertionError as e:
            result.fail(f"{name}: {what}: {e}")


def check_oracles(out: dict, pdf: dict, result: Result, tracer: Tracer | None = None) -> None:
    for name, (_, _, res) in out.items():
        try:
            if tracer is None:
                check(name, res, pdf)
            else:
                with tracer.span(f"oracle.{name}"):
                    check(name, res, pdf)
        except AssertionError as e:
            result.fail(f"{name}: oracle check failed: {e}")


def run(*, seed: int, seconds: float, trace: bool, out_path: str) -> Result:
    result = Result()
    seeds = job_seeds(seed)
    work_dir = os.path.join(os.path.dirname(out_path), "spark")
    session_s, spark = timed(lambda: start_session(work_dir))
    try:
        inputs_s, inputs = median_setup(lambda: make_inputs(spark, seeds))
        job_fns = jobs(spark, inputs, seeds)
        pdf = inputs["pdf"]
        cold_wall, cold = timed(lambda: run_pass(spark, job_fns, result))
        if not trace:
            check_oracles(cold, pdf, result)
            watch = Stopwatch()

            def timed_pass():
                watch.seconds = 0.0
                out = run_pass(spark, job_fns, result)
                return out, watch.seconds

            with patched(watch, PATCHES):
                walls, timed_outs = passes(timed_pass, seconds)
            outs = [out for out, _ in timed_outs]
            input_share = [100 * s / (w - s) for w, (_, s) in zip(walls, timed_outs)]
        else:
            base_wall, base = timed(lambda: run_pass(spark, job_fns, result))
            tracer = Tracer()
            with patched(tracer, PATCHES):
                with tracer.span("bench.pass"):
                    wall, traced = timed(lambda: run_pass(spark, job_fns, result, tracer))
                check_oracles(traced, pdf, result, tracer)
            walls, outs = [base_wall], [base, traced]
        for i, out in enumerate(outs):
            check_pass(out, cold, f"pass {i + 1} differs from the first", result)
    finally:
        stop_session(spark)

    v = result.values
    v["setup_s"] = session_s + inputs_s
    rows = sum(input_rows(name, pdf) for name in SPARK_JOBS)
    warm = outs[0]
    v["wall_s"] = statistics.median(walls)
    job_ms = sorted(1e3 * wall for out in outs[:len(walls)] for wall, _, _ in out.values())
    v["op_p50_ms"] = statistics.median(job_ms)
    v["work_per_s"] = rows / v["wall_s"]
    v["runs_per_op"] = statistics.mean(n for _, n, _ in warm.values())
    if not trace:
        v["overhead_pct"] = statistics.median(input_share)

    result.info.append(
        f"pass_s={[round(w, 3) for w in walls]} (after one cold pass of {cold_wall:.2f}s) jobs/pass={len(warm)} "
        f"input_rows/pass={rows} session_start_s={session_s:.2f} inputs_s={inputs_s:.3f} "
        f"local[{THREADS}] sf={SF} job_ms p50={v['op_p50_ms']:.1f} {tail(job_ms)}")
    for name in SPARK_JOBS:
        if name in warm:
            result.info.append(f"job {name:12s} rows={input_rows(name, pdf):7d} "
                               f"spark_jobs={warm[name][1]:2d} cold_ms={1e3 * cold[name][0]:.0f} "
                               f"warm_ms={1e3 * warm[name][0]:.0f}")
    if trace:
        v.update(per_layer(tracer, {"spark.cold_pass_s": cold_wall,
                                    "trace.overhead_s": wall - base_wall}))
        tracer.dump(out_path, {"workload": "spark", "seed": seed, "untraced_wall_s": base_wall,
                               "traced_wall_s": wall})
    return result
