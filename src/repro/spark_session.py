"""Local SparkSession bootstrap for the tests and the ``jobs/`` entry points.

The pytest session fixture in ``conftest.py`` and the standalone jobs
(``python jobs/<name>.py`` or ``spark-submit``) both call ``local_session``.
JVM launch settings come from ``set_launch_env`` (driver memory must be
fixed before the JVM starts, hence the env-var dance); the session configs
are shuffle partitions, Arrow, and broadcast joins disabled (explicit
``F.broadcast`` hints still apply where an algorithm calls for them).
"""
from __future__ import annotations

import os


def _driver_mem() -> str:
    """Driver heap for a local-mode JVM.

    Precedence: ``SPARK_DRIVER_MEM`` (explicit override) > ~75% of the
    cgroup v2/v1 memory limit > half of ``/proc/meminfo`` MemTotal clamped
    to 2–8g (the fallback the documented test command uses) > 2g. The source
    is recorded in ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: a sandbox's sysfs emulation may not pass
    the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if 1 <= gib <= 1024:  # v1 "unlimited" -> ~8.6e9 GiB
                os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
                return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
        return f"{min(8, max(2, kib // (2 << 20)))}g"
    except (OSError, ValueError, StopIteration, IndexError):
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
        return "2g"


def set_launch_env() -> None:
    """Default the JVM launch settings (master, driver memory) in the
    environment. They are read when the JVM starts, not from SparkConf, so
    this must run before anything in the process starts a JVM."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )


def local_session(app_name: str):
    """The local session of the tests and the jobs."""
    set_launch_env()
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
