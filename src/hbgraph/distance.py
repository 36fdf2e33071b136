"""Distance distributions and summary statistics from neighbourhood runs.

A monotone neighbourhood curve N(0..T) doubles as a cumulative count of
node pairs by distance, so its normalized increments are the distance
distribution. Each curve gives one distribution, and every statistic in
STATISTIC_NAMES is read from it. Their standard errors come from one
jackknife over whole runs (leave one run out, never single registers, so
correlations inside a run stay intact) that builds the mean curve and the
R leave-one-out curves once and serves every statistic.

Self-pairs ((x, x), distance 0) are kept by default; `include_self_pairs
=False` removes n pairs of mass at t=0, which shifts the mean up and is
the convention some published tables use. Estimated curves may dip below
n, so the subtraction clamps at zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
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
        # the summed counts can end an ulp or so below the total; at q = 1
        # the target is then the last cumulative count, not past it
        target = min(q * self.total, cum[-1])
        d = int(np.searchsorted(cum, target, side="left"))
        if d == 0:
            return 0.0
        # cum[d - 1] < target <= cum[d], so the step is positive
        return float(d - 1 + (target - cum[d - 1]) / (cum[d] - cum[d - 1]))

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


def _statistics(curve, n: int, include_self_pairs: bool, q: float) -> list[float]:
    """The STATISTIC_NAMES values of one curve, from one distribution."""
    dist = to_distribution(curve, n, include_self_pairs)
    return [dist.mean(), dist.variance(), dist.spid(),
            dist.effective_diameter(q), dist.within_ceiling_pct()]


def _clamp(name: str, value: float, t: int) -> float:
    """A bias-corrected estimate of statistic `name` put back in the
    range the statistic has on curves over 0..T: [0, T] for the effective
    diameter, [0, 100] for the within-ceiling share. A quantile is not
    smooth in the curve, so its correction can step outside."""
    ranges = {"effective_diameter": (0.0, t), "within_ceiling_pct": (0.0, 100.0)}
    lo, hi = ranges.get(name, (-np.inf, np.inf))
    return float(np.clip(value, lo, hi))


def _jackknife(matrix: np.ndarray, stat) -> list[JackknifeResult]:
    """Jackknife every entry of `stat(curve)` over the mean curve and the R
    leave-one-out curves; a single run gives plug-in values, NaN errors."""
    r = matrix.shape[0]
    # row averages are monotone in exact arithmetic, but float
    # cancellation can leave tiny negative steps; accumulate them away
    total = matrix.sum(axis=0)
    theta = [float(v) for v in stat(np.maximum.accumulate(total / r))]
    if r == 1:
        return [JackknifeResult(estimate=v, se=float("nan"), runs=1) for v in theta]
    loo = np.array([stat(np.maximum.accumulate((total - row) / (r - 1))) for row in matrix])
    results = []
    # a contiguous column per statistic keeps each sum in its 1-d order
    for full, col in zip(theta, np.ascontiguousarray(loo.T, dtype=float)):
        col_mean = col.mean()
        # identical leave-one-out values have zero spread by definition;
        # their mean may sit an ulp off and manufacture variance
        spread = 0.0 if np.all(col == col[0]) else np.square(col - col_mean).sum()
        estimate = float(r * full - (r - 1) * col_mean)
        results.append(JackknifeResult(estimate, float(np.sqrt((r - 1) / r * spread)), r))
    return results


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
    matrix of monotone curves. A named statistic's estimate stays in its
    range (`_clamp`); its standard error is not clamped.
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
    if matrix.shape[0] < 2:
        raise ValueError("jackknife needs at least two runs")
    if callable(statistic):
        stat, k = (lambda c: [statistic(c)]), 0
    elif statistic in STATISTIC_NAMES:
        stat = partial(_statistics, n=n, include_self_pairs=include_self_pairs, q=q)
        k = STATISTIC_NAMES.index(statistic)
    else:
        raise ValueError(
            f"unknown statistic {statistic!r}; pick from {STATISTIC_NAMES} or pass a callable"
        )
    res = _jackknife(matrix, stat)[k]
    if callable(statistic):
        return res
    return JackknifeResult(_clamp(statistic, res.estimate, matrix.shape[1] - 1), res.se, res.runs)


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
        return asdict(self)

    def to_text(self) -> str:
        """Aligned table; a non-finite value, such as the error of a single
        run, prints as n/a."""

        def num(v, digits=6):
            return f"{v:.{digits}f}" if np.isfinite(v) else "n/a"

        def est(label, v, se, digits=6):
            return (label, num(v, digits), f"+- {num(se, digits)}")

        rows = [
            ("nodes", f"{self.n}", ""),
            ("runs", f"{self.runs}", ""),
            ("iterations", f"{self.iterations}", ""),
            est("reachable pairs %", self.reachable_pct, self.reachable_pct_se, 4),
            est("mean distance", self.mean, self.mean_se),
            ("mean (excl self)", num(self.mean_excl_self), ""),
            est("variance", self.variance, self.variance_se),
            est("spid", self.spid, self.spid_se),
            est("effective diameter", self.effective_diameter, self.effective_diameter_se),
            est("within ceil(mean) %", self.within_ceiling_pct, self.within_ceiling_se, 4),
        ]
        w0 = max(len(a) for a, _, _ in rows)
        w1 = max(len(b) for _, b, _ in rows)
        return "\n".join(f"{a:<{w0}}  {b:>{w1}}  {c}".rstrip() for a, b, c in rows)


def summarize(
    runs: RunSet, include_self_pairs: bool = True, q: float = 0.9
) -> DistanceStats:
    """Jackknifed distance statistics for repeated runs on one graph.

    A single run gives its plug-in statistics with NaN standard errors.
    The effective diameter stays in [0, iterations] and the within-ceiling
    share in [0, 100] (`_clamp`). The mean under the opposite self-pair
    convention rides along for easy comparison with published tables.
    """
    n = runs.n
    matrix = runs.to_matrix(monotone=True)
    mean_curve = np.maximum.accumulate(matrix.mean(axis=0))
    pairs, t = float(n) * float(n), matrix.shape[1] - 1
    mean, variance, spid, diameter, ceiling, reachable = _jackknife(
        matrix, lambda c: [*_statistics(c, n, include_self_pairs, q), 100.0 * c[-1] / pairs]
    )
    try:
        excl_mean = to_distribution(mean_curve, n, include_self_pairs=False).mean()
    except ValueError:  # no positive-distance pairs at all
        excl_mean = float("nan")
    return DistanceStats(
        n=n,
        runs=len(runs),
        iterations=max(r.iterations for r in runs.runs),
        # linear in the curve, so the plug-in value needs no bias correction
        reachable_pct=100.0 * float(mean_curve[-1]) / pairs,
        reachable_pct_se=reachable.se,
        mean=mean.estimate,
        mean_se=mean.se,
        mean_excl_self=excl_mean,
        variance=variance.estimate,
        variance_se=variance.se,
        spid=spid.estimate,
        spid_se=spid.se,
        effective_diameter=_clamp("effective_diameter", diameter.estimate, t),
        effective_diameter_se=diameter.se,
        within_ceiling_pct=_clamp("within_ceiling_pct", ceiling.estimate, t),
        within_ceiling_se=ceiling.se,
    )
