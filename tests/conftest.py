import os
import sys
from pathlib import Path

import pytest

import beattylab.cli
from beattylab import big_g, sieve_primes

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


@pytest.fixture(scope="session")
def criterion_4_big_g():
    # big_g(1e5) takes about a second; criterion 4 and its strict-xfail twin share the values
    return {z: big_g(z) for z in (10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)}


@pytest.fixture
def sieve_calls(monkeypatch):
    """Limits of every sieve_primes call made through a beattylab module binding."""
    calls = []
    real = beattylab.primes.sieve_primes

    def counting(limit, *args, **kwargs):
        calls.append(limit)
        return real(limit, *args, **kwargs)

    for mod in (beattylab.primes, beattylab.experiment, beattylab.cli, beattylab.selberg):
        monkeypatch.setattr(mod, "sieve_primes", counting)
    return calls
