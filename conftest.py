import os
import sys


# The program's sources, so that this file imports even when PYTHONPATH
# lacks ``src`` (as in ``python -m pytest perfbench/tests``). Spark's Python
# workers still need ``src`` on PYTHONPATH for tests that run Python UDFs.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.spark_session import local_session, set_launch_env  # noqa: E402

# Driver memory and master go into PYSPARK_SUBMIT_ARGS before pyspark is
# imported anywhere: this runs at conftest import, which pytest loads before
# any test module.
set_launch_env()

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, from the same
    bootstrap as the standalone jobs (``repro.spark_session.local_session``).
    """
    s = local_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
