import os

# One BLAS thread, as in perfbench, set before numpy loads. On a two-CPU
# machine a threaded OpenBLAS worker can wake on the main thread's CPU; until
# the scheduler moves it (about a second) every matmul then waits a time
# slice, which the timing criterion would measure instead of the code.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from logotree import ids, phono  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def rule_table():
    return ids.load_rule_table(DATA_DIR / "mini_ids.txt")


@pytest.fixture(scope="session")
def readings():
    return phono.parse_unihan_readings(DATA_DIR / "mini_readings.txt")


@pytest.fixture(scope="session")
def variants():
    return phono.parse_unihan_variants(DATA_DIR / "mini_variants.txt")


@pytest.fixture(scope="session")
def corpus(readings):
    entries, dropped = phono.build_corpus(readings, seed=7)
    assert dropped == 0
    return entries


def unihan_dir():
    """Directory with the full UniHan + IDS download, if the user provides one.

    Expected files: Unihan_Readings.txt, Unihan_Variants.txt, ids.txt.
    """
    path = os.environ.get("LOGOTREE_UNIHAN_DIR")
    if path and Path(path).is_dir():
        return Path(path)
    return None


requires_unihan = pytest.mark.skipif(
    unihan_dir() is None,
    reason="full UniHan dataset not available (set LOGOTREE_UNIHAN_DIR)")
