import os
import threading

# One BLAS thread, as in perfbench, set before numpy loads. On a two-CPU
# machine a threaded OpenBLAS worker can wake on the main thread's CPU; until
# the scheduler moves it (about a second) every matmul then waits a time
# slice, which the timing criterion would measure instead of the code.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from logotree import encoders, ids, phono  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


class WeightGrads:
    """Where the tree and LSTM reverse passes of a test add their weight
    gradients.

    ``use(True)`` hands every level's or step's job to a helper thread of
    the test's own (``test-grads``), whatever its size and the number of
    CPUs; ``use(False)`` has each pass add them itself. ``threads`` names the
    thread of every job since the last ``use``."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.helpers, self.threads = monkeypatch, [], []
        weight_grads = encoders._weight_grads

        def recording(*args):
            self.threads.append(threading.current_thread().name)
            return weight_grads(*args)

        monkeypatch.setattr(encoders, "_weight_grads", recording)

    def use(self, on: bool) -> None:
        self.threads.clear()
        if on:
            self.helpers.append(ThreadPoolExecutor(1, thread_name_prefix="test-grads"))
            self.monkeypatch.setattr(encoders, "_helper", self.helpers[-1])
            self.monkeypatch.setattr(encoders, "_HAND_OFF", 0)
        else:
            self.monkeypatch.setattr(encoders, "_helper", False)

    def both_ways(self, run) -> list:
        """``run()``'s results with the helper, then inline; each run must
        have added weight gradients, all on the thread its mode says."""
        results = []
        for on in (True, False):
            self.use(on)
            results.append(run())
            assert self.threads
            assert {name.startswith("test-grads") for name in self.threads} == {on}
        return results


@pytest.fixture
def weight_grads(monkeypatch):
    grads = WeightGrads(monkeypatch)
    yield grads
    for helper in grads.helpers:
        helper.shutdown()


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
