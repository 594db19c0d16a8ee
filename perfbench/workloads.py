"""Workload definitions, input generation and model training.

Every input the benchmark sends is drawn from a fixed Gaussian class
mixture: class ``y`` has a mean vector, and an input is that mean plus unit
Gaussian noise.  The class drawn is the input's held-out label, so accuracy
needs no stored test set and unique inputs never run out.

The mixture and the models are built from fixed seeds (``DATA_SEED`` and the
per-model seeds below), so every run serves the same models; ``--seed``
only chooses which inputs are sent and when.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Math-library threads for every process the benchmark starts.  The
#: installed OpenBLAS otherwise runs two spin-waiting threads per process,
#: which take the core the load generator needs.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread settings)

DATA_SEED = 1017
N_CLASSES = 10


@dataclass(frozen=True)
class ModelSpec:
    """One ensemble member: an mlkit estimator trained on ``n_train`` rows."""

    name: str
    kind: str  # "logreg", "svm" or "nb"
    n_train: int
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: "http": a separate generator process over binary HTTP;
    #: "engine": ``QueryFrontend.predict`` inside the serving process.
    kind: str
    dim: int
    #: Distance of the class means from the origin (sets model accuracy).
    separation: float
    models: Tuple[ModelSpec, ...]
    selection_policy: str
    #: Number of distinct inputs; 0 means every input is unique.
    hot_set: int
    #: Latency objective on ``TAIL_PCT`` that ``qps_at_slo`` must meet.
    slo_ms: float
    nominal_rate: float
    #: Rate ladder for ``qps_at_slo``: ``ladder_base * LADDER_RATIO**k``.
    ladder_base: float
    ladder_steps: int
    #: Ladder rung the capacity search starts from.
    ladder_start: int
    users: int = 1
    feedback: bool = False


#: Ratio between neighbouring ladder rungs: fine enough that a 1.5x change
#: in capacity moves the result by six rungs.
LADDER_RATIO = 1.07

#: Percentile reported as ``tail_ms`` and judged against the SLO.
TAIL_PCT = 90.0

_SINGLE = (ModelSpec("logreg", "logreg", 2000, 11),)
_ENSEMBLE = (
    ModelSpec("logreg", "logreg", 2000, 21),
    ModelSpec("svm", "svm", 2000, 22),
    ModelSpec("logreg-small", "logreg", 150, 23),
    ModelSpec("nb-tiny", "nb", 40, 24),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rest-hit",
            kind="http",
            dim=3072,
            separation=0.1,
            models=_SINGLE,
            selection_policy="single",
            hot_set=512,
            slo_ms=20.0,
            nominal_rate=1000.0,
            ladder_base=500.0,
            ladder_steps=48,
            ladder_start=34,
        ),
        Workload(
            name="engine-batch",
            kind="engine",
            dim=3072,
            separation=0.1,
            models=_SINGLE,
            selection_policy="single",
            hot_set=0,
            slo_ms=20.0,
            nominal_rate=400.0,
            ladder_base=400.0,
            ladder_steps=48,
            ladder_start=36,
        ),
        Workload(
            name="rest-feedback",
            kind="http",
            dim=256,
            separation=0.22,
            models=_ENSEMBLE,
            selection_policy="exp4",
            hot_set=0,
            slo_ms=20.0,
            nominal_rate=100.0,
            ladder_base=80.0,
            ladder_steps=40,
            ladder_start=21,
            users=32,
            feedback=True,
        ),
    )
}


def ladder(workload: Workload) -> List[float]:
    """The fixed rate ladder (req/s) of one workload."""
    return [
        round(workload.ladder_base * LADDER_RATIO**k, 1)
        for k in range(workload.ladder_steps)
    ]


class Mixture:
    """The fixed class mixture inputs and labels are drawn from."""

    def __init__(self, workload: Workload) -> None:
        rng = np.random.default_rng((DATA_SEED, workload.dim))
        self.dim = workload.dim
        self.means = (
            rng.normal(0.0, 1.0, (N_CLASSES, workload.dim)) * workload.separation
        ).astype(np.float32)

    def sample(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` fresh inputs (float32 rows) and their held-out labels."""
        labels = rng.integers(0, N_CLASSES, n)
        inputs = self.means[labels] + rng.standard_normal((n, self.dim), dtype=np.float32)
        return inputs, labels


def train_models(workload: Workload) -> Dict[str, object]:
    """Fit every model of the workload from fixed seeds (deterministic)."""
    from repro.mlkit.linear import LinearSVM, LogisticRegression
    from repro.mlkit.naive_bayes import GaussianNB

    mixture = Mixture(workload)
    models = {}
    for spec in workload.models:
        X, y = mixture.sample(np.random.default_rng((DATA_SEED, spec.seed)), spec.n_train)
        if spec.kind == "logreg":
            model = LogisticRegression(epochs=5, random_state=spec.seed)
        elif spec.kind == "svm":
            model = LinearSVM(epochs=5, random_state=spec.seed)
        else:
            model = GaussianNB()
        models[spec.name] = model.fit(X, y)
    return models


def direct_labels(models: Dict[str, object], inputs: np.ndarray) -> Dict[str, np.ndarray]:
    """Each model's label for each input, computed by calling it directly."""
    X = np.asarray(inputs, dtype=np.float64)
    return {name: np.asarray(model.predict(X)) for name, model in models.items()}
