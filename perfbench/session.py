"""Deployment settings the benchmark owns, and the Spark session it runs in.

Everything that could otherwise be decided by the environment is pinned
here and recorded with every result: master thread count, driver memory,
Spark's local directories, the Python workers' import path and the session
configs. Nothing is read from ``SPARK_*`` variables the caller may have set.
"""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

MAX_THREADS = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64  # the repository's own session default


def deployment(root: Path) -> Dict[str, str]:
    """The pinned settings for a checkout at ``root``."""
    work = root / ".bench_build" / "perfbench"
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    return {
        "master": f"local[{threads}]",
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": str(SHUFFLE_PARTITIONS),
        "spark_local_dirs": str(work / "spark-local"),
        "tmpdir": str(work / "tmp"),
        "pythonpath": str(root / "src"),
    }


def start_session(settings: Dict[str, str]):
    """Create the SparkSession. Must run before anything starts a JVM."""
    for key in ("spark_local_dirs", "tmpdir"):
        Path(settings[key]).mkdir(parents=True, exist_ok=True)
    # Workers inherit the driver's environment: give them the import path
    # explicitly, or they fail with ModuleNotFoundError: repro.
    os.environ["PYTHONPATH"] = settings["pythonpath"]
    os.environ["SPARK_LOCAL_DIRS"] = settings["spark_local_dirs"]
    os.environ["TMPDIR"] = settings["tmpdir"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {settings['master']} "
        f"--driver-memory {settings['driver_memory']} "
        f"--driver-java-options -Djava.io.tmpdir={settings['tmpdir']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.ui.retainedJobs=1000000 "
        "--conf spark.ui.retainedStages=1000000 "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", settings["shuffle_partitions"])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def versions(spark) -> Dict[str, str]:
    """pyspark, Java and CPU-count versions for the result record."""
    import pyspark

    jvm = spark.sparkContext._jvm
    return {
        "pyspark": pyspark.__version__,
        "spark": spark.version,
        "java": str(jvm.java.lang.System.getProperty("java.version")),
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
    }
