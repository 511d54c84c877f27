import os
import sys
from pathlib import Path

import pytest

from beattylab import sieve_primes

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

# tests that start `python -m beattylab.cli` import the package from src/,
# whether or not the suite was started with PYTHONPATH=src
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture(scope="session")
def table_3k():
    return sieve_primes(3_000)


@pytest.fixture(scope="session")
def table_30k():
    return sieve_primes(30_000)


@pytest.fixture(scope="session")
def table_1m5():
    # covers q = floor(alpha * 1e6) for alpha up to ~1.5
    return sieve_primes(1_500_000)
