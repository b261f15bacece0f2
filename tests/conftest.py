import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from igeo import dualflat, models

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADAPTIVE_SPEC = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "adaptive_verify.json"


@pytest.fixture(scope="session")
def run_fresh():
    """``run_fresh(code)``: stdout of ``code`` run by a new interpreter
    that imports igeo from this checkout; fails the test when it fails."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)

    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


# A 1-d Gaussian location model written inline, on a seeded Monte Carlo rule
MC_LOCATION = {
    "name": "mc-gaussian-location", "dim": 1,
    "space": {"kind": "real-line",
              "quadrature": {"kind": "monte-carlo", "nodes": 4096, "seed": 5,
                             "loc": 0.0, "scale": 2.0}},
    "domain": {"lo": [-1.5], "hi": [1.5]},
    "log_density": "-(x[0] - theta[0])^2/2 - 0.9189385332046727",
}


@pytest.fixture(scope="session")
def mc_location():
    """Factory of new ``MC_LOCATION`` models, each with its own memo."""
    return lambda: models.load_model(MC_LOCATION)


@pytest.fixture(scope="session")
def adaptive_runs():
    """The runs of the adaptive spec: an inline normal-natural model and the
    normal family, both on adaptive quadrature at the default tolerance."""
    return json.loads(ADAPTIVE_SPEC.read_text())["runs"]


@pytest.fixture(scope="session")
def normal_model():
    return models.normal_mean_sigma()


@pytest.fixture(scope="session")
def normal_natural_model():
    return models.normal_natural()


@pytest.fixture(scope="session")
def bernoulli_model():
    return models.bernoulli_natural()


@pytest.fixture(scope="session")
def logistic_model():
    return models.location_family("logistic", 1)


@pytest.fixture(scope="session")
def normal_natural_family():
    return dualflat.normal_natural_family()


@pytest.fixture(scope="session")
def bernoulli_family():
    return dualflat.bernoulli_natural_family()


@pytest.fixture(scope="session")
def nn_grid():
    return [np.array([t1, t2]) for t1 in (-0.6, -0.5, -0.3)
            for t2 in (-0.4, 0.0, 0.4)]


@pytest.fixture(scope="session")
def normal_grid():
    return [np.array([m, s]) for m in (-0.5, 0.0, 0.5) for s in (0.9, 1.2, 1.6)]
