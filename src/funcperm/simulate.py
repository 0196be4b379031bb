"""Synthetic data generation and Monte Carlo power studies.

Paths are Gaussian with time-varying mean, scale, and lag-one correlation:
a latent process starts at white noise and evolves as

    W(t) = rho(t) W(t-1) + xi(t) sqrt(1 - rho(t)^2),   xi iid N(0, 1),

which keeps Var W(t) = 1 at every t, and the observed path is
mu(t) + sigma(t) W(t).  The ten standard parameter designs shift the
treatment groups' mean (+0.05), scale (+0.05), or correlation (+0.2)
against a shared control baseline; a scale knob lets desk-sized studies
use proportionally larger shifts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .measure import MeasureSpec, draw_functions, median_peak
from .permutation import _check_levels, _check_mode, decide, permutation_distributions, sampled_plan_matrix
from .rng import Seed, _index, seed_entropy, substream
from .samples import TimeGrid

MEAN_SHIFT = 0.05
SD_SHIFT = 0.05
CORR_SHIFT = 0.2

TEST_NAMES = ("cvm", "combined", "energy")

# Per-design (d_mean, d_sd, d_corr) multipliers for the two treatment groups.
_DESIGN_SHIFTS: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    1: ((0, 0, 0), (0, 0, 0)),
    2: ((1, 0, 0), (0, 0, 0)),
    3: ((1, 0, 0), (1, 0, 0)),
    4: ((1, 0, 0), (0, 1, 0)),
    5: ((1, 0, 0), (0, 0, 1)),
    6: ((0, 1, 0), (0, 0, 0)),
    7: ((0, 1, 0), (0, 1, 0)),
    8: ((0, 0, 1), (0, 0, 0)),
    9: ((0, 0, 1), (0, 1, 0)),
    10: ((0, 0, 1), (0, 0, 1)),
}

DESIGN_IDS = tuple(sorted(_DESIGN_SHIFTS))

# slots per day of the synthetic baseline's periodic profiles
_DAILY_PERIOD = 48


def _readonly(array) -> np.ndarray:
    out = np.asarray(array, dtype=float).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GroupParams:
    """Per-slot mean, scale, and lag-one correlation of one group's paths."""

    mu: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        mu, sigma, rho = (_readonly(v) for v in (self.mu, self.sigma, self.rho))
        if not (mu.shape == sigma.shape == rho.shape) or mu.ndim != 1 or mu.size < 1:
            raise ValueError("mu, sigma, rho must be equal-length vectors")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if not np.all(sigma > 0):
            raise ValueError("sigma must be positive everywhere")
        if not np.all(np.abs(rho) < 1):
            raise ValueError("correlations must lie strictly inside (-1, 1)")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]

    def shifted(self, d_mu: float = 0.0, d_sigma: float = 0.0, d_rho: float = 0.0) -> "GroupParams":
        """Copy with constants added; re-validated, so a correlation pushed
        to or past +-1 raises instead of being clamped."""
        return GroupParams(self.mu + d_mu, self.sigma + d_sigma, self.rho + d_rho)


@dataclass(frozen=True)
class DesignSpec:
    """A fully resolved experiment: control plus shifted treatment groups."""

    design_id: int
    groups: tuple[GroupParams, ...]
    group_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.groups) != len(self.group_sizes):
            raise ValueError("one parameter set per group is required")
        if any(n < 1 for n in self.group_sizes):
            raise ValueError("group sizes must be positive")
        horizon = self.groups[0].horizon
        if any(g.horizon != horizon for g in self.groups):
            raise ValueError("all groups must share the horizon")

    @property
    def horizon(self) -> int:
        return self.groups[0].horizon


def synthetic_baseline(horizon: int) -> GroupParams:
    """Smooth daily-periodic control parameters.

    Slot profiles (slot = (t - 1) mod 48, angle = 2 pi slot / 48, one day of
    half-hour slots):

    * mu    = 1.60 + 0.60 sin(angle) + 0.30 sin(2 angle)
    * sigma = 0.50 + 0.12 cos(angle)            (range [0.38, 0.62])
    * rho   = 0.40 + 0.12 sin(angle + 1)        (range [0.28, 0.52])

    The scale is of order one so the default evaluation measure (unit
    pointwise variance) sweeps the region where the paths live, and the
    correlation range keeps rho + 2 * CORR_SHIFT below one, so doubled
    correlation shifts remain admissible.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    slot = np.arange(horizon) % _DAILY_PERIOD
    angle = 2.0 * np.pi * slot / _DAILY_PERIOD
    mu = 1.60 + 0.60 * np.sin(angle) + 0.30 * np.sin(2.0 * angle)
    sigma = 0.50 + 0.12 * np.cos(angle)
    rho = 0.40 + 0.12 * np.sin(angle + 1.0)
    return GroupParams(mu, sigma, rho)


def apply_design(
    design_id: int,
    baseline: GroupParams,
    group_sizes: Sequence[int] = (50, 50, 50),
    shift_scale: float = 1.0,
) -> DesignSpec:
    """Resolve one of the ten standard designs against a control baseline.

    All designs use two treatment groups.  ``shift_scale`` multiplies the
    standard shift magnitudes (1.0 reproduces them exactly); a correlation
    shift that would reach +-1 raises.
    """
    if design_id not in _DESIGN_SHIFTS:
        raise ValueError(f"unknown design id {design_id}; expected 1..10")
    sizes = tuple(int(n) for n in group_sizes)
    if len(sizes) != 3:
        raise ValueError("designs are defined for a control and two treatments")
    groups = [baseline]
    for mult in _DESIGN_SHIFTS[design_id]:
        groups.append(
            baseline.shifted(
                d_mu=mult[0] * MEAN_SHIFT * shift_scale,
                d_sigma=mult[1] * SD_SHIFT * shift_scale,
                d_rho=mult[2] * CORR_SHIFT * shift_scale,
            )
        )
    return DesignSpec(design_id, tuple(groups), sizes)


def _gaussian_paths(mu, sigma, rho, noise: np.ndarray) -> np.ndarray:
    """The paths driven by ``noise`` (N, J): one row per path.

    ``mu``, ``sigma`` and ``rho`` are (J,) vectors shared by every row or
    (N, J) matrices with one row per path.  Each path's values depend
    only on its own parameter and noise rows, so paths computed together
    equal, bit for bit, the same paths computed in separate calls.
    """
    latent = noise * np.sqrt(1.0 - rho**2)
    latent[:, 0] = noise[:, 0]
    for t in range(1, noise.shape[1]):
        latent[:, t] += rho[..., t] * latent[:, t - 1]
    return mu + sigma * latent


def simulate_paths(params: GroupParams, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_paths`` independent paths of the Gaussian process.

    The latent recursion starts at the first grid slot; rho[t] governs the
    transition into slot t, so rho[0] is unused.  Marginals are
    N(mu(t), sigma(t)^2) with lag-one correlation rho(t) at every t > 1.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    noise = rng.standard_normal((n_paths, params.horizon))
    return _gaussian_paths(params.mu, params.sigma, params.rho, noise)


def design_paths(design: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """One dataset of ``design``: each group's paths, stacked in group order.

    Equal, bit for bit, to ``np.vstack`` of :func:`simulate_paths` per
    group on the same stream: one (N, J) normal draw consumes the stream
    exactly as the per-group (n_s, J) draws do, in the same order.
    """
    noise = rng.standard_normal((sum(design.group_sizes), design.horizon))
    mu, sigma, rho = (
        np.repeat([getattr(g, name) for g in design.groups], design.group_sizes, axis=0)
        for name in ("mu", "sigma", "rho")
    )
    return _gaussian_paths(mu, sigma, rho, noise)


@dataclass(frozen=True)
class StudyConfig:
    """One power study's settings, checked once.

    Each requested test runs at total level ``sum(alpha_split)``; the
    combined test splits that total as given.  Counts must be integers.
    ``power_config.json`` is ``dataclasses.asdict`` of it, in field order.
    """

    designs: tuple[int, ...]
    tests: tuple[str, ...] = TEST_NAMES
    reps: int = 300
    n_perms: int = 199
    alpha_split: tuple[float, float] = (0.025, 0.025)  # (cvm level, mean-path level)
    n_terms: int = 19
    n_draws: int = 512
    coeff_law: str = "gaussian"
    mean_level: "float | str" = "auto"
    group_sizes: tuple[int, ...] = (20, 20, 20)
    horizon: int = 96
    seed: Seed = 0
    shift_scale: float = 1.0
    mode: str = "randomized"

    def __post_init__(self) -> None:
        # tuples and plain numbers, so that the settings echo reads the same
        # whatever sequence and number types the caller passed; a count
        # that is not an integer (a bool included) raises instead of being
        # truncated
        entropy = seed_entropy(self.seed)  # the key's own checks
        normal = {
            "designs": tuple(map(_index, self.designs)),
            "tests": tuple(self.tests),
            "alpha_split": tuple(map(float, self.alpha_split)),
            "mean_level": self.mean_level if self.mean_level == "auto" else float(self.mean_level),
            "group_sizes": tuple(map(_index, self.group_sizes)),
            "seed": entropy[0] if isinstance(self.seed, (int, np.integer)) else entropy,
            "shift_scale": float(self.shift_scale),
        }
        for name in ("reps", "n_perms", "n_terms", "n_draws", "horizon"):
            normal[name] = _index(getattr(self, name))
        for name, value in normal.items():
            object.__setattr__(self, name, value)
        if self.reps < 1:
            raise ValueError("need at least one replication")
        for kind, values in (("design id", self.designs), ("test", self.tests)):
            if not values:
                raise ValueError(f"need at least one {kind}")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{kind} {repeated[0]!r} is listed more than once")
        unknown = set(self.tests) - set(TEST_NAMES)
        if unknown:
            raise ValueError(f"unknown tests {sorted(unknown)}")
        _check_mode(self.mode)
        # the measure's own checks, made once per study instead of in the
        # first replication; any finite level stands in for "auto"
        level = 0.0 if self.mean_level == "auto" else self.mean_level
        MeasureSpec(self.n_terms, level, law=self.coeff_law)
        if self.n_draws < 1:
            raise ValueError(f"need at least one measure draw, got {self.n_draws}")
        if self.n_perms < 2:
            raise ValueError("need at least two permutation plans")
        if len(self.alpha_split) != 2:
            raise ValueError(f"alpha_split needs two levels (cvm, mean_path), got {len(self.alpha_split)}")
        _check_levels(*self.alpha_split)
        # the designs' own checks, before any replication
        baseline = synthetic_baseline(self.horizon)
        for design_id in self.designs:
            apply_design(design_id, baseline, self.group_sizes, self.shift_scale)


@dataclass(frozen=True)
class PowerRow:
    """Empirical rejection probability of one test under one design."""

    test: str
    design_id: int
    rate: float
    std_error: float


@dataclass(frozen=True)
class PowerTable:
    """Power-study output: one row per (test, design), and the study's settings."""

    rows: tuple[PowerRow, ...]
    config: StudyConfig

    def to_csv_text(self) -> str:
        alpha_cvm, alpha_mean = self.config.alpha_split
        lines = ["test,alpha_cvm,alpha_mean,design,rate,std_error,reps"]
        for r in self.rows:
            lines.append(
                f"{r.test},{alpha_cvm:.10g},{alpha_mean:.10g},"
                f"{r.design_id},{r.rate:.10g},{r.std_error:.10g},{self.config.reps}"
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        levels = "({:g}, {:g})".format(*self.config.alpha_split)
        header = f"{'test':<10}{'levels':<18}{'design':>7}{'rate':>9}{'se':>9}{'reps':>7}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.test:<10}{levels:<18}{r.design_id:>7}"
                f"{r.rate:>9.3f}{r.std_error:>9.3f}{self.config.reps:>7}"
            )
        return "\n".join(lines)


def run_replication(config: StudyConfig, design: DesignSpec, rep: int) -> dict[str, bool]:
    """Simulate one dataset of ``design`` and run every requested test on
    shared plans.

    All randomness comes from substreams keyed by (seed, design, rep,
    stage), so results are identical no matter how replications are
    scheduled.  The evaluation-draw seed is re-derived per replication and
    the measure's mean level may be estimated from the pooled simulated
    sample; both are label-invariant, so exactness is preserved.
    """
    key = seed_entropy(config.seed, design.design_id, rep)
    sizes = design.group_sizes
    pooled = design_paths(design, substream(key, 0))

    # each requested test's (statistic, level) decisions, made in this
    # order whatever the order of config.tests
    alpha_cvm, alpha_mean = config.alpha_split
    alpha_total = alpha_cvm + alpha_mean
    decisions = {
        "cvm": (("cvm", alpha_total),),
        "combined": (("cvm", alpha_cvm), ("mean_path", alpha_mean)),
        "energy": (("energy", alpha_total),),
    }
    decisions = {test: pairs for test, pairs in decisions.items() if test in config.tests}
    wanted = tuple(dict.fromkeys(stat for pairs in decisions.values() for stat, _ in pairs))

    draws = None
    if "cvm" in wanted:
        level = median_peak(pooled) if config.mean_level == "auto" else config.mean_level
        spec = MeasureSpec(config.n_terms, level, law=config.coeff_law, seed=(*key, 1))
        draws = draw_functions(spec, TimeGrid.regular(design.horizon), config.n_draws)

    plans = sampled_plan_matrix(sizes, config.n_perms, seed=(*key, 2))
    dists = permutation_distributions(pooled, sizes, plans, wanted, draws)

    decision_rng = substream(key, 3)
    out: dict[str, bool] = {}
    for test, pairs in decisions.items():
        # every decision draws from decision_rng, so all are made before any
        # one is read
        rejected = [
            decide(dists[stat].observed, dists[stat], alpha, config.mode, decision_rng).rejected
            for stat, alpha in pairs
        ]
        out[test] = any(rejected)
    return out


def run_study(config: StudyConfig, threads: int = 1) -> PowerTable:
    """Empirical rejection probabilities over the study's designs and tests.

    ``threads`` > 1 distributes replications across processes without
    changing any output.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    baseline = synthetic_baseline(config.horizon)
    specs = [
        apply_design(d, baseline, config.group_sizes, config.shift_scale) for d in config.designs
    ]
    task_designs = [spec for spec in specs for _ in range(config.reps)]
    task_reps = [rep for _ in specs for rep in range(config.reps)]
    replicate = partial(run_replication, config)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(replicate, task_designs, task_reps, chunksize=8))
    else:
        results = list(map(replicate, task_designs, task_reps))

    rows = []
    for i, design_id in enumerate(config.designs):
        chunk = results[i * config.reps : (i + 1) * config.reps]
        for test in config.tests:
            rate = sum(1 for r in chunk if r[test]) / config.reps
            std_error = float(np.sqrt(rate * (1.0 - rate) / config.reps))
            rows.append(PowerRow(test, design_id, rate, std_error))
    return PowerTable(tuple(rows), config)


def run_power_study(designs: Sequence[int], *, threads: int = 1, **settings) -> PowerTable:
    """:func:`run_study` of the :class:`StudyConfig` of these settings,
    each of them other than ``designs`` given by name."""
    return run_study(StudyConfig(designs, **settings), threads)
