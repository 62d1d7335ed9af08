"""Alignment score statistics (Karlin-Altschul / Gumbel).

A scan report that ranks raw scores cannot say whether a hit is
*surprising*; search tools report E-values.  For ungapped local
alignment Karlin-Altschul theory gives

    ``E = K * m * n * exp(-lambda * S)``

with ``lambda`` the unique positive solution of
``sum_ij p_i p_j exp(lambda * s_ij) = 1`` — solved here with SciPy's
``brentq`` for any scoring scheme and residue distribution.  For the
gapped scores our kernels produce, theory gives no closed form, so
``K`` (and, optionally, a gapped ``lambda``) are **calibrated
empirically**: simulate best scores of random sequence pairs, fit the
Gumbel location/scale by moments, and convert.  This is exactly how
BLAST's gapped parameters are produced (by simulation), scaled to
laptop size.

Used by :mod:`repro.scan` to attach E-values to ranked hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, pi, sqrt

import numpy as np

from ..align.scoring import DNA_ALPHABET, LinearScoring, SubstitutionMatrix, encode
from ..align.smith_waterman import sw_score
from ..io.generate import random_dna

__all__ = [
    "karlin_lambda",
    "GumbelFit",
    "fit_gumbel",
    "calibrate",
    "ScoreStatistics",
]

#: Euler-Mascheroni constant (Gumbel mean = mu + gamma * beta).
_EULER_GAMMA = 0.5772156649015329


def karlin_lambda(
    scheme: LinearScoring | SubstitutionMatrix,
    frequencies: dict[str, float] | None = None,
    alphabet: str = DNA_ALPHABET,
) -> float:
    """The ungapped Karlin-Altschul lambda for a scoring scheme.

    ``frequencies`` default to uniform over ``alphabet``.  Requires a
    negative expected pair score and a positive maximum (the classic
    admissibility conditions); raises ``ValueError`` otherwise.
    """
    from scipy.optimize import brentq  # only E-value statistics need scipy
    if frequencies is None:
        frequencies = {ch: 1.0 / len(alphabet) for ch in alphabet}
    total = sum(frequencies.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"frequencies must sum to 1, got {total}")
    pairs = [
        (pa * pb, scheme.pair(a, b))
        for a, pa in frequencies.items()
        for b, pb in frequencies.items()
    ]
    expected = sum(p * s for p, s in pairs)
    if expected >= 0:
        raise ValueError(
            f"expected pair score must be negative for local statistics, got {expected}"
        )
    if max(s for _, s in pairs) <= 0:
        raise ValueError("maximum pair score must be positive")

    def moment(lam: float) -> float:
        return sum(p * exp(lam * s) for p, s in pairs) - 1.0

    # moment(0) = 0; the function dips negative then grows: bracket the
    # positive root.
    hi = 1.0
    while moment(hi) < 0:
        hi *= 2
        if hi > 100:  # pragma: no cover - admissibility guarantees a root
            raise RuntimeError("failed to bracket lambda")
    return float(brentq(moment, 1e-9, hi))


@dataclass(frozen=True)
class GumbelFit:
    """Location/scale of a Gumbel (EVD) fitted to max-score samples."""

    mu: float
    beta: float
    samples: int

    @property
    def lambda_(self) -> float:
        """Gumbel scale as a gapped lambda estimate (1 / beta)."""
        return 1.0 / self.beta


def fit_gumbel(samples: np.ndarray | list[int]) -> GumbelFit:
    """Method-of-moments Gumbel fit.

    ``beta = std * sqrt(6) / pi``, ``mu = mean - gamma * beta`` — the
    standard quick EVD estimator (BLAST's island method refines this;
    moments are adequate for the repo's calibration tests).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 10:
        raise ValueError(f"need at least 10 samples, got {arr.size}")
    std = float(arr.std(ddof=1))
    if std == 0:
        raise ValueError("degenerate samples (zero variance)")
    beta = std * sqrt(6.0) / pi
    mu = float(arr.mean()) - _EULER_GAMMA * beta
    return GumbelFit(mu=mu, beta=beta, samples=int(arr.size))


@dataclass(frozen=True)
class ScoreStatistics:
    """Calibrated statistics for one scoring scheme at one shape.

    ``lambda_`` and ``k`` parameterize ``E = K m n exp(-lambda S)``.
    """

    lambda_: float
    k: float
    calibration_m: int
    calibration_n: int

    def evalue(self, score: int, m: int, n: int) -> float:
        """Expected number of chance hits scoring >= ``score``."""
        if m <= 0 or n <= 0:
            raise ValueError("sequence lengths must be positive")
        return self.k * m * n * exp(-self.lambda_ * score)

    def pvalue(self, score: int, m: int, n: int) -> float:
        """P(at least one chance hit >= score) = 1 - exp(-E)."""
        e = self.evalue(score, m, n)
        return 1.0 - exp(-e) if e < 700 else 1.0

    def bitscore(self, score: int) -> float:
        """Normalized score: ``(lambda S - ln K) / ln 2``."""
        return (self.lambda_ * score - log(self.k)) / log(2)

    def score_for_evalue(self, evalue: float, m: int, n: int) -> int:
        """Smallest integer score whose E-value is <= ``evalue``."""
        if evalue <= 0:
            raise ValueError("evalue threshold must be positive")
        raw = log(self.k * m * n / evalue) / self.lambda_
        return max(1, int(np.ceil(raw)))


def calibrate(
    scheme: LinearScoring | SubstitutionMatrix | None = None,
    m: int = 64,
    n: int = 256,
    trials: int = 60,
    seed: int = 0,
) -> ScoreStatistics:
    """Empirical calibration of (lambda, K) for gapped local scores.

    Simulates ``trials`` random pairs, fits the Gumbel, and converts:
    ``lambda = 1/beta``, ``K = exp(lambda * mu) / (m * n)``.  Seeded
    and deterministic.  For the ungapped theory value of lambda use
    :func:`karlin_lambda`; the gapped estimate is always smaller
    (gaps make high scores likelier), which a test asserts.
    """
    if scheme is None:
        scheme = LinearScoring()
    scores = []
    for trial in range(trials):
        s = random_dna(m, seed=seed * 100_000 + 2 * trial)
        t = random_dna(n, seed=seed * 100_000 + 2 * trial + 1)
        scores.append(sw_score(s, t, scheme))
    fit = fit_gumbel(np.asarray(scores))
    lambda_ = fit.lambda_
    k = exp(lambda_ * fit.mu) / (m * n)
    return ScoreStatistics(lambda_=lambda_, k=k, calibration_m=m, calibration_n=n)
