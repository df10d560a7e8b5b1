"""Samplers on the unit hypersphere S^{p-1}.

Covers the uniform null, projections of i.i.d. heavy-tailed coordinates
(Cauchy, Student-t, symmetrized Pareto, centered chi-square), and the
Fisher-von Mises-Langevin family.  One body draws every model into a
block of samples, each from its own SeedSpec stream, and normalizes the
rows of the whole block at once.  ``sample_from_model`` is a block of one,
and the per-model samplers are wrappers around it.  Every sampler is a pure
function of its arguments and a SeedSpec, so identical calls give
bit-identical samples no matter where, when or in which block they run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "SeedSpec",
    "SphericalSample",
    "HeavyTailMarginal",
    "AlternativeModel",
    "sample_uniform_sphere",
    "draw_marginal",
    "sample_alpha_spherical",
    "sample_fvml",
    "sample_from_model",
]

UNIT_NORM_TOL = 1e-12

# floats of scratch that _row_norms squares a chunk of rows into
_NORM_CHUNK = 1 << 15


def _check_integers(**values) -> None:
    """The one integer rule of a request: a Python or numpy integer, never a bool or a float."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> float:
    """The one real-number rule of a request and the one owner of its float64: a real that
    is not a bool and fits a float64.  Returns the float64 each caller range-tests and keeps."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float64") from None


def _check_shape(n: int, p: int) -> None:
    """The one shape rule of a sample: integers n and p, both positive."""
    _check_integers(n=n, p=p)
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible stream address: (master seed, replication index).

    The derived generator is a pure function of both fields; distinct
    replication indices give statistically independent streams.
    """

    master_seed: int
    replication_index: int = 0

    def __post_init__(self) -> None:
        _check_integers(master_seed=self.master_seed, replication_index=self.replication_index)
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.replication_index < 0:
            raise ValueError("replication_index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((int(self.master_seed), int(self.replication_index)))
        return np.random.default_rng(ss)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows along the last axis, with the bits of
    ``np.linalg.norm(rows, axis=-1)`` but no temporary of the size of `rows`:
    chunks of rows are squared into one scratch buffer of at most
    max(_NORM_CHUNK, p) floats, and each row sums as it does in one call."""
    flat = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])  # also for p = 0
    norms = np.empty(len(flat))
    step = max(1, _NORM_CHUNK // max(1, flat.shape[1]))
    scratch = np.empty((min(step, len(flat)), flat.shape[1]))
    for i in range(0, len(flat), step):
        chunk = flat[i : i + step]
        squares = np.multiply(chunk, chunk, out=scratch[: len(chunk)])
        np.add.reduce(squares, axis=1, out=norms[i : i + len(chunk)])
    return np.sqrt(norms, out=norms).reshape(rows.shape[:-1])


def _norm_deviation(rows: np.ndarray) -> np.ndarray:
    """Largest | ||x|| - 1 | over the rows x of each (n, p) sample in `rows`.
    The only unit-norm check, of SphericalSample rows: a NaN row gives NaN and
    an overflowing norm inf, so `<= UNIT_NORM_TOL` refuses both."""
    with np.errstate(over="ignore"):  # a refused value, not an overflow warning
        return np.abs(_row_norms(rows) - 1.0).max(axis=-1)


@dataclass(frozen=True)
class SphericalSample:
    """n points on S^{p-1}, one per row; `_check_shape` refuses an n or p
    that is not a positive integer, a float or a bool included.  `rows` must
    be a numpy array; `from_rows` converts a list."""

    n: int
    p: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_shape(self.n, self.p)
        if not isinstance(self.rows, np.ndarray):
            raise ValueError(f"rows must be a numpy array, got {type(self.rows).__name__}; "
                             "SphericalSample.from_rows converts other rows")
        if self.rows.shape != (self.n, self.p):
            raise ValueError(f"rows must have shape ({self.n}, {self.p})")
        worst = float(_norm_deviation(self.rows))
        if not worst <= UNIT_NORM_TOL:  # also rejects NaN rows
            raise ValueError(f"row norms deviate from 1 by up to {worst:.3e}")

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "SphericalSample":
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        return cls(n=rows.shape[0], p=rows.shape[1], rows=rows)


@dataclass(frozen=True)
class HeavyTailMarginal:
    """Coordinate law whose projection to the sphere we sample.

    kind is one of "cauchy", "student_t", "pareto", "centered_chisq1";
    param carries the t degrees of freedom or the Pareto tail index: the
    float64 that `_check_real` returns, range-tested and stored, so the
    classmethods and the draws take it as it is.
    """

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cauchy", "student_t", "pareto", "centered_chisq1"):
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind in ("student_t", "pareto"):
            param = _check_real("param", self.param)
            if self.kind == "student_t" and not 0.0 < param < math.inf:
                raise ValueError("student_t needs finite degrees of freedom > 0")
            if self.kind == "pareto" and not 0.0 < param < 2.0:
                raise ValueError("pareto tail index must lie in (0, 2)")
            object.__setattr__(self, "param", param)
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    @classmethod
    def cauchy(cls) -> "HeavyTailMarginal":
        return cls("cauchy")

    @classmethod
    def student_t(cls, nu: float) -> "HeavyTailMarginal":
        return cls("student_t", nu)

    @classmethod
    def pareto(cls, alpha: float) -> "HeavyTailMarginal":
        return cls("pareto", alpha)

    @classmethod
    def centered_chisq1(cls) -> "HeavyTailMarginal":
        return cls("centered_chisq1")

    @property
    def is_symmetric(self) -> bool:
        return self.kind != "centered_chisq1"

    @property
    def tail_index(self) -> float | None:
        """Regular-variation index when it lies in (0, 2), else None."""
        if self.kind == "cauchy":
            return 1.0
        if self.kind == "student_t" and self.param < 2.0:
            return self.param
        if self.kind == "pareto":
            return self.param
        return None


@dataclass(frozen=True)
class AlternativeModel:
    """Data-generating law: uniform, alpha-spherical, or FvML.

    The one check of a model's fields: each kind refuses a field it does not
    read.  alpha_spherical reads its marginal, which must be a
    HeavyTailMarginal (None or any other value is refused), fvml its
    concentration kappa, stored as its float64, and uniform neither.  FvML
    draws a fresh unit mean direction from each sample's own stream before
    its cosines; the tests are rotation invariant, so the direction does not
    affect rejection rates.
    """

    kind: str
    marginal: HeavyTailMarginal | None = None
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "alpha_spherical", "fvml"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "alpha_spherical" and not isinstance(self.marginal, HeavyTailMarginal):
            raise ValueError(f"model alpha_spherical needs a marginal (a HeavyTailMarginal), "
                             f"got {self.marginal!r}")
        if self.kind != "alpha_spherical" and self.marginal is not None:
            raise ValueError(f"model {self.kind} takes no marginal")
        if self.kind != "fvml" and self.kappa != 0.0:
            raise ValueError(f"model {self.kind} takes no kappa")
        kappa = _check_real("kappa", self.kappa)
        if not 0.0 <= kappa < math.inf:  # also rejects NaN
            raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def uniform(cls) -> "AlternativeModel":
        return cls("uniform")

    @classmethod
    def alpha_spherical(cls, marginal: HeavyTailMarginal) -> "AlternativeModel":
        return cls("alpha_spherical", marginal=marginal)

    @classmethod
    def fvml(cls, kappa: float) -> "AlternativeModel":
        return cls("fvml", kappa=kappa)


def _normalize_rows(raw: np.ndarray, what: str) -> None:
    """Project the rows of an (n, p) sample or a (B, n, p) block to unit norm, in place.

    A zero-norm row raises RuntimeError: it has probability zero for the
    continuous laws sampled here, so it means a broken generator.
    A row whose norm overflows (a tiny tail parameter draws coordinates
    near or at inf) is first replaced by its direction, the limit of
    x/||x||: divided by its largest |x| when its coordinates are finite,
    else the sign vector of its infinite coordinates.  Every other row
    keeps its bits.  Callers whose draws can overflow run this under
    ``np.errstate(over="ignore")``.
    """
    norms = _row_norms(raw)
    if (norms == 0.0).any():
        raise RuntimeError(f"{what}: drew a zero-norm row")
    huge = np.isinf(norms)
    if huge.any():
        x = raw[huge]
        inf = np.isinf(x)
        has_inf = inf.any(axis=1)
        x[has_inf] = np.where(inf[has_inf], np.sign(x[has_inf]), 0.0)
        x[~has_inf] /= np.abs(x[~has_inf]).max(axis=1, keepdims=True)
        raw[huge] = x
        norms[huge] = _row_norms(x)
    raw /= norms[..., None]


def sample_uniform_sphere(n: int, p: int, seed: SeedSpec) -> SphericalSample:
    """i.i.d. Unif(S^{p-1}) rows: normalized standard Gaussian vectors."""
    return sample_from_model(AlternativeModel.uniform(), n, p, seed)


def _draw_raw(marginal: HeavyTailMarginal, count: int, rng: np.random.Generator) -> np.ndarray:
    # a tiny tail parameter overflows a draw to +-inf (pareto's power, a t draw over
    # a zero chi-square); that is the draw's value, not an error
    with np.errstate(over="ignore", divide="ignore"):
        if marginal.kind == "cauchy":
            u = rng.random(count)
            return np.tan(np.pi * (u - 0.5))
        if marginal.kind == "student_t":
            nu = marginal.param
            z = rng.standard_normal(count)
            v = rng.chisquare(nu, count)
            return z / np.sqrt(v / nu)
        if marginal.kind == "pareto":
            u = rng.random(count)
            magnitude = (1.0 - u) ** (-1.0 / marginal.param)
            sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
            return sign * magnitude
        # centered_chisq1: chi^2(1) has mean 1 and variance 2
        z = rng.standard_normal(count)
        return (z * z - 1.0) / np.sqrt(2.0)


def draw_marginal(marginal: HeavyTailMarginal, count: int, seed: SeedSpec) -> np.ndarray:
    """i.i.d. draws from the raw (pre-projection) coordinate law.

    A tiny tail parameter (``student_t(1e-5)``, ``pareto(1e-300)``) draws
    values beyond the float range; those come back as +-inf, without a
    warning.  `count` must be a positive integer; a float or a bool is
    refused before any draw.
    """
    _check_integers(count=count)
    if count < 1:
        raise ValueError("count must be positive")
    return _draw_raw(marginal, count, seed.generator())


def sample_alpha_spherical(
    n: int, p: int, marginal: HeavyTailMarginal, seed: SeedSpec
) -> SphericalSample:
    """Rows are (X_1..X_p)/||X|| with i.i.d. heavy-tailed coordinates."""
    return sample_from_model(AlternativeModel.alpha_spherical(marginal), n, p, seed)


def _fvml_cosines(n: int, p: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Cosines t = mu.x under FvML via Wood's rejection sampler.

    Target density on [-1, 1] is proportional to exp(kappa*t)(1-t^2)^{(p-3)/2};
    the envelope is a transformed Beta((p-1)/2, (p-1)/2).  At kappa=0 every
    proposal is accepted and t is exactly the null cosine law.

    Wood's test kappa*(w - x0) + d*log((1 - x0*w)/(1 - x0^2)) >= log(u), with
    x0 = (1-b)/(1+b), is evaluated in terms of b and q = 1 - (1-b)z:
    w - x0 = 2b(1-2z)/((1+b)q) and (1 - x0*w)/(1 - x0^2) = (1+b)/(2q).  The
    textbook form cancels to log1p(-1) = -inf once x0 rounds to 1 (kappa
    around 1e17 and up) and then never accepts.
    """
    d = p - 1
    # b = (-2k + sqrt(4k^2 + d^2))/d, written to avoid cancellation at large kappa;
    # once kappa^2 overflows b is 0 and every w is exactly 1, the rounded limit
    b = d / (2.0 * kappa + np.sqrt(4.0 * kappa * kappa + d * d))

    out = np.empty(n)
    filled = 0
    rounds = 0
    while filled < n:
        rounds += 1
        if rounds > 1000:
            raise RuntimeError("FvML cosine sampler failed to accept after 1000 rounds")
        m = n - filled
        z = rng.beta(0.5 * d, 0.5 * d, size=m)
        q = 1.0 - (1.0 - b) * z
        w = (1.0 - (1.0 + b) * z) / q
        u = rng.random(m)
        log_ratio = 2.0 * (kappa * b) * (1.0 - 2.0 * z) / ((1.0 + b) * q) + d * (
            np.log1p(b) - math.log(2.0) - np.log(q)
        )
        accept = log_ratio >= np.log(u)
        kept = w[accept]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return np.clip(out, -1.0, 1.0)


def sample_fvml(n: int, p: int, kappa: float, seed: SeedSpec) -> SphericalSample:
    """i.i.d. FvML(kappa, mu) rows via tangent-normal decomposition.

    The mean direction mu is a uniform unit vector, the first draw of the
    seed's stream.  Each row is t*mu + sqrt(1-t^2)*xi with t from the
    rejection sampler and xi uniform on the equator orthogonal to mu.
    """
    return sample_from_model(AlternativeModel.fvml(kappa), n, p, seed)


def _check_model_dimension(model: AlternativeModel, p: int) -> None:
    """The model's one rule that depends on p: FvML needs p >= 2."""
    if model.kind == "fvml" and p < 2:
        raise ValueError("FvML sampling needs p >= 2")


def _draw_rows(model: AlternativeModel, p: int, seed: SeedSpec, out: np.ndarray) -> None:
    """Draw one sample's rows, not yet normalized, into the (n, p) `out` from `seed`'s stream."""
    rng = seed.generator()
    n = out.shape[0]
    if model.kind == "uniform":
        rng.standard_normal(out=out)
    elif model.kind == "alpha_spherical":
        out[...] = _draw_raw(model.marginal, n * p, rng).reshape(n, p)
    else:
        # fresh direction per sample, drawn ahead of the cosines
        mu = rng.standard_normal(p)
        mu /= np.linalg.norm(mu)
        t = _fvml_cosines(n, p, model.kappa, rng)
        x = rng.standard_normal((n, p))  # Gaussian rows projected orthogonal to mu
        out[...] = x - np.outer(x @ mu, mu)
        _normalize_rows(out, "fvml sampler")
        out[...] = t[:, None] * mu[None, :] + np.sqrt(1.0 - t * t)[:, None] * out


def _sample_block(model: AlternativeModel, p: int, seeds, out: np.ndarray) -> None:
    """Fill out[k] with unit rows of the model drawn from seeds[k]'s stream alone.

    `out` is a C-contiguous (B, n, p) block.  Norms, zero-norm rows and rows
    whose norm overflows are handled once for the whole block, row by row,
    so each sample has the bits it has in a block of one.
    """
    for seed, rows in zip(seeds, out):
        _draw_rows(model, p, seed, rows)
    # coordinates at or near inf overflow their row norm; _normalize_rows maps those rows
    with np.errstate(over="ignore"):
        _normalize_rows(out, f"{model.kind} sampler")


def sample_from_model(model: AlternativeModel, n: int, p: int, seed: SeedSpec) -> SphericalSample:
    """Draw n rows from the model; one stream drives everything.

    `_check_shape` and the model's p rule refuse a bad n or p before any draw.
    """
    _check_shape(n, p)
    _check_model_dimension(model, p)
    rows = np.empty((1, n, p))
    _sample_block(model, p, [seed], rows)
    return SphericalSample(n=n, p=p, rows=rows[0])
