"""Distance distributions and summary statistics from neighbourhood runs.

A monotone neighbourhood curve N(0..T) doubles as a cumulative count of
node pairs by distance, so its normalized increments are the distance
distribution. Everything here consumes such curves: exact ones give the
true distribution, estimated ones give plug-in statistics whose standard
errors come from jackknifing whole runs (leave one run out, never single
registers, so correlations inside a run stay intact).

Self-pairs ((x, x), distance 0) are kept by default; `include_self_pairs
=False` removes n pairs of mass at t=0, which shifts the mean up and is
the convention some published tables use. Estimated curves may dip below
n, so the subtraction clamps at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import RunSet

__all__ = [
    "DistanceDistribution",
    "DistanceStats",
    "JackknifeResult",
    "to_distribution",
    "jackknife",
    "summarize",
]

STATISTIC_NAMES = (
    "mean",
    "variance",
    "spid",
    "effective_diameter",
    "within_ceiling_pct",
)


@dataclass(frozen=True)
class DistanceDistribution:
    """Distribution of pairwise distances, pmf over t = 0..T."""

    pmf: np.ndarray
    counts: np.ndarray  # pair counts per distance, after self-pair handling
    total: float  # sum of counts
    n: int
    include_self_pairs: bool

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.pmf.size)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def mean(self) -> float:
        return float(np.dot(self.support, self.pmf))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot(self.support.astype(float) ** 2, self.pmf) - mu * mu)

    def spid(self) -> float:
        """Dispersion index variance/mean; < 1 means sub-Poisson spread.

        NaN when the mean is zero (all mass on self-pairs).
        """
        mu = self.mean()
        if mu == 0.0:
            return float("nan")
        return self.variance() / mu

    def effective_diameter(self, q: float = 0.9) -> float:
        """Interpolated smallest t whose cdf reaches the q quantile."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        cum = np.cumsum(self.counts)
        target = q * self.total
        d = int(np.searchsorted(cum, target, side="left"))
        if d == 0:
            return 0.0
        step = cum[d] - cum[d - 1]
        if step <= 0:
            return float(d)
        return float(d - 1 + (target - cum[d - 1]) / step)

    def within_ceiling_pct(self) -> float:
        """Percentage of pairs at distance <= ceil(mean distance)."""
        t = min(int(np.ceil(self.mean())), self.pmf.size - 1)
        return float(100.0 * self.cdf()[t])


def to_distribution(
    values, n: int, include_self_pairs: bool = True
) -> DistanceDistribution:
    """Turn a monotone neighbourhood curve into a distance distribution.

    `values` is N(0..T): the number of pairs within distance t, self-pairs
    included (the way the diffusion produces it).
    """
    curve = np.asarray(values, dtype=float)
    if curve.ndim != 1 or curve.size == 0:
        raise ValueError("expected a nonempty 1-d curve")
    if not np.isfinite(curve).all():
        raise ValueError("curve contains nonfinite values")
    if (np.diff(curve) < 0).any():
        raise ValueError("curve must be nondecreasing (pass monotone values)")
    if n <= 0:
        raise ValueError("node count must be positive")
    if not include_self_pairs:
        curve = np.maximum(curve - n, 0.0)
    counts = np.diff(curve, prepend=0.0)
    total = float(curve[-1])
    if total <= 0:
        raise ValueError("distribution has no mass (no pairs at any distance)")
    return DistanceDistribution(
        pmf=counts / total,
        counts=counts,
        total=total,
        n=n,
        include_self_pairs=include_self_pairs,
    )


# ---- jackknife over whole runs ----


@dataclass(frozen=True)
class JackknifeResult:
    estimate: float  # bias-corrected
    se: float
    runs: int


def _resolve_statistic(
    statistic: str | Callable, n: int, include_self_pairs: bool, q: float
) -> Callable[[np.ndarray], float]:
    if callable(statistic):
        return statistic
    if statistic == "mean":
        return lambda c: to_distribution(c, n, include_self_pairs).mean()
    if statistic == "variance":
        return lambda c: to_distribution(c, n, include_self_pairs).variance()
    if statistic == "spid":
        return lambda c: to_distribution(c, n, include_self_pairs).spid()
    if statistic == "effective_diameter":
        return lambda c: to_distribution(c, n, include_self_pairs).effective_diameter(q)
    if statistic == "within_ceiling_pct":
        return lambda c: to_distribution(c, n, include_self_pairs).within_ceiling_pct()
    raise ValueError(
        f"unknown statistic {statistic!r}; pick from {STATISTIC_NAMES} or pass a callable"
    )


def jackknife(
    runs: RunSet | np.ndarray,
    statistic: str | Callable[[np.ndarray], float],
    n: int | None = None,
    include_self_pairs: bool = True,
    q: float = 0.9,
) -> JackknifeResult:
    """Leave-one-run-out estimate and standard error of a curve statistic.

    `statistic` is a name from STATISTIC_NAMES or any callable mapping a
    monotone curve to a float. Runs enter as a RunSet or an (R, T+1)
    matrix of monotone curves.
    """
    if isinstance(runs, RunSet):
        matrix = runs.to_matrix(monotone=True)
        n = runs.n if n is None else n
    else:
        matrix = np.asarray(runs, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("expected an (R, T+1) curve matrix")
        if n is None:
            raise ValueError("n is required with a bare matrix")
    r = matrix.shape[0]
    if r < 2:
        raise ValueError("jackknife needs at least two runs")
    stat = _resolve_statistic(statistic, n, include_self_pairs, q)

    # row averages are monotone in exact arithmetic, but float
    # cancellation can leave tiny negative steps; accumulate them away
    total = matrix.sum(axis=0)
    theta_full = float(stat(np.maximum.accumulate(total / r)))
    loo = np.array(
        [
            float(stat(np.maximum.accumulate((total - matrix[i]) / (r - 1))))
            for i in range(r)
        ]
    )
    loo_mean = loo.mean()
    estimate = r * theta_full - (r - 1) * loo_mean
    if np.all(loo == loo[0]):
        # identical leave-one-out values have zero spread by definition;
        # loo.mean() may sit an ulp off loo[0] and manufacture variance
        se = 0.0
    else:
        se = float(np.sqrt((r - 1) / r * np.square(loo - loo_mean).sum()))
    return JackknifeResult(estimate=float(estimate), se=se, runs=r)


# ---- one-call summary ----


@dataclass(frozen=True)
class DistanceStats:
    """Point estimates with jackknife standard errors for one run set
    (NaN errors when the set holds a single run)."""

    n: int
    runs: int
    iterations: int
    reachable_pct: float
    reachable_pct_se: float
    mean: float
    mean_se: float
    mean_excl_self: float
    variance: float
    variance_se: float
    spid: float
    spid_se: float
    effective_diameter: float
    effective_diameter_se: float
    within_ceiling_pct: float
    within_ceiling_se: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "runs": self.runs,
            "iterations": self.iterations,
            "reachable_pct": self.reachable_pct,
            "reachable_pct_se": self.reachable_pct_se,
            "mean": self.mean,
            "mean_se": self.mean_se,
            "mean_excl_self": self.mean_excl_self,
            "variance": self.variance,
            "variance_se": self.variance_se,
            "spid": self.spid,
            "spid_se": self.spid_se,
            "effective_diameter": self.effective_diameter,
            "effective_diameter_se": self.effective_diameter_se,
            "within_ceiling_pct": self.within_ceiling_pct,
            "within_ceiling_se": self.within_ceiling_se,
        }

    def to_text(self) -> str:
        """Aligned table; a non-finite value, such as the error of a single
        run, prints as n/a."""

        def num(v, digits=6):
            return f"{v:.{digits}f}" if np.isfinite(v) else "n/a"

        rows = [
            ("nodes", f"{self.n}", ""),
            ("runs", f"{self.runs}", ""),
            ("iterations", f"{self.iterations}", ""),
            (
                "reachable pairs %",
                num(self.reachable_pct, 4),
                f"+- {num(self.reachable_pct_se, 4)}",
            ),
            ("mean distance", num(self.mean), f"+- {num(self.mean_se)}"),
            ("mean (excl self)", num(self.mean_excl_self), ""),
            ("variance", num(self.variance), f"+- {num(self.variance_se)}"),
            ("spid", num(self.spid), f"+- {num(self.spid_se)}"),
            (
                "effective diameter",
                num(self.effective_diameter),
                f"+- {num(self.effective_diameter_se)}",
            ),
            (
                "within ceil(mean) %",
                num(self.within_ceiling_pct, 4),
                f"+- {num(self.within_ceiling_se, 4)}",
            ),
        ]
        w0 = max(len(a) for a, _, _ in rows)
        w1 = max(len(b) for _, b, _ in rows)
        return "\n".join(f"{a:<{w0}}  {b:>{w1}}  {c}".rstrip() for a, b, c in rows)


def summarize(
    runs: RunSet, include_self_pairs: bool = True, q: float = 0.9
) -> DistanceStats:
    """Jackknifed distance statistics for repeated runs on one graph.

    A single run gives its plug-in statistics with NaN standard errors.
    The mean under the opposite self-pair convention rides along for
    easy comparison with published tables.
    """
    n = runs.n
    matrix = runs.to_matrix(monotone=True)
    mean_curve = np.maximum.accumulate(matrix.mean(axis=0))
    reachable = 100.0 * float(mean_curve[-1]) / (float(n) * float(n))

    if len(runs) == 1:
        plug_in = {
            name: _resolve_statistic(name, n, include_self_pairs, q)(mean_curve)
            for name in STATISTIC_NAMES
        }
        results = {
            name: JackknifeResult(estimate=float(v), se=float("nan"), runs=1)
            for name, v in plug_in.items()
        }
        reachable_se = float("nan")
    else:
        results = {
            name: jackknife(matrix, name, n=n, include_self_pairs=include_self_pairs, q=q)
            for name in STATISTIC_NAMES
        }
        reachable_se = jackknife(matrix, lambda c: 100 * c[-1] / n**2, n=n).se
    try:
        excl_mean = to_distribution(mean_curve, n, include_self_pairs=False).mean()
    except ValueError:  # no positive-distance pairs at all
        excl_mean = float("nan")
    return DistanceStats(
        n=n,
        runs=len(runs),
        iterations=max(r.iterations for r in runs.runs),
        reachable_pct=reachable,
        reachable_pct_se=reachable_se,
        mean=results["mean"].estimate,
        mean_se=results["mean"].se,
        mean_excl_self=excl_mean,
        variance=results["variance"].estimate,
        variance_se=results["variance"].se,
        spid=results["spid"].estimate,
        spid_se=results["spid"].se,
        effective_diameter=results["effective_diameter"].estimate,
        effective_diameter_se=results["effective_diameter"].se,
        within_ceiling_pct=results["within_ceiling_pct"].estimate,
        within_ceiling_se=results["within_ceiling_pct"].se,
    )
