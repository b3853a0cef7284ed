"""Correntropy power-iteration PCA: ``fit`` and the plain-PCA baseline.

``fit`` finds the components one at a time.  An a-priori eigendecomposition
of X^T X / n seeds each component, its kernel size sigma_0 is
``KERNEL_SCALE`` times the median residual norm of the samples at that
a-priori vector (the scale of the reconstruction errors whose correntropy
the fit maximises, as in He et al., "Robust Principal Component Analysis
Based on Maximum Correntropy Criterion", IEEE TIP 2011), the kernel shrinks
in n_decay geometric rounds from sigma_0 to sigma_0 KERNEL_SPAN, and the
last component is the one-column complement basis of the others.  Each
round is a fixed-point loop at one kernel size: freeze the sample weights,
take the top eigenvector of the weighted scatter compressed to the
complement of the components already found, (I - P) S (I - P), refresh the
weights, repeat.

With the default n_decay = 2 a component takes two rounds, at 30 and at 1.2
times its median residual norm; more rounds only subdivide that span, so a
schedule never ends below the residual scale.  Both sizes are per-sample
quantities, so the fit is the same for any n drawn from one distribution
(stacking X on itself leaves it unchanged).  Only the fixed point of the
last round is the answer, so every earlier round stops once a step moves
the direction by at most sqrt(``OUTER_TOL``) (1e-4) and the last runs to
``OUTER_TOL`` (1e-8).  Each round starts from the fixed point of the round
before and iterates the map u -> top eigenvector of the weighted scatter at
u, accelerated by a depth-1 Anderson (secant) step: each step mixes the last
two images along their difference by one scalar, and takes the plain image
when the secant model of the map does not contract.  It stops once the map
moves its iterate by at most the round's tolerance and returns that image,
so every direction it returns is an eigenvector of a weighted scatter.  A
component is ``converged`` when each round met its own tolerance within
``OUTER_MAX_ITER`` (200) outer iterations.  The schedule stops early when
the kernel no longer carries information: at the last grid point above the
floor 2 sigma^2 <= eps max ||y||^2 (only a small ``sigma0`` gets there), or
when every sample weight underflows in a round.  The component then keeps
the direction reached so far, reports ``sigma_underflow=True`` and
``converged=False``, and its ``final_sigma`` is NaN when no round finished.
The iteration keeps whatever sign its steps produce; the sign convention of
``linalg.fix_sign`` is applied once, to the direction a component reports.

The loop runs in the coordinates of the complement of the k found
components, set up once per component and shared by its rounds: an
orthonormal p x m basis B of that complement (m = p - k;
``linalg.complement_basis``, the trailing columns of a complete QR of the
found components), Y = X B stored column-major, and the row energies
e = ||y||^2.  For v = B u the residual (I - P - v v^T) x is y - (y.u) u, so
with t = Y u each outer iteration is

    w = exp(-max(e - t^2, 0) / 2 sigma^2),   u <- top eigenvector of Y^T diag(w) Y,

an O(n m) weight pass and an m x m eigensolve in place of the p x p residual
operator, its n x p x p product and the (I - P) S (I - P) sandwich.
Computing ||y||^2 - t^2 instead of the residual's norm cancels for rows
nearly parallel to u; its absolute error is a few ulps of ||y||^2, so the
exponent is off by at most about eps ||y||^2 / 2 sigma^2, and the clamp at 0
keeps every weight in (0, 1].  At the floor that error reaches about 1 for
the largest exponent, so the weights are rounding noise; the floor also lies
far above the sizes at which an exponent overflows or 2 sigma^2 is 0.

At n = 400 and m <= 3 each of those steps is a few microseconds of
arithmetic, so ``_fixed_point`` keeps numpy's per-call cost down: each round
allocates two buffers and reuses them at every outer iteration, a length-n
vector that receives t = Y u and then, in place, the weights, and an n x m
Fortran-ordered array that receives the scaled rows w_k y_k (the layout
``w[:, None] * Y`` has, so the scatter's product is the same gemm), and
step norms are sqrt(f.f), the arithmetic of ``np.linalg.norm``.  Every
iterate is bit for bit that of the allocating calls.

``standard_pca`` provides the plain eigendecomposition baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correntropy import all_underflowed, rank_one_weights, weighted_scatter
from .linalg import (
    SingularDirectionError,
    check_integer,
    check_positive,
    complement_basis,
    fix_sign,
    null_space_vector,
    sym_evd,
)
# Reference names that bench/tracing.py and tests/test_acceptance.py read here.
from .reference import DeflationState, build_deflated_operator, woodbury_update


# sigma_0 of a component, in units of the median residual norm at its
# a-priori vector, and the last round's kernel size over sigma_0: every
# schedule ends at 1.2 times that median, where many samples keep weight.
KERNEL_SCALE = 30.0
KERNEL_SPAN = 0.04
# The step size at which the last round of a schedule stops (every earlier
# round stops at its square root), and the outer iterations a round may take.
OUTER_TOL = 1e-8
OUTER_MAX_ITER = 200


class DegenerateInputError(ValueError):
    """Input matrix is (numerically) rank deficient, too small, or has
    non-finite entries."""


@dataclass(frozen=True)
class MCPIConfig:
    """The kernel-shrinking schedule and the centring of the input; frozen,
    and checked on construction (and so on ``dataclasses.replace``).

    ``fit`` runs ``n_decay`` rounds for each component, at the kernel sizes
    sigma_0 ``KERNEL_SPAN``^(r / (n_decay - 1)), r < n_decay (one round at
    sigma_0 when n_decay is 1): the last to ``OUTER_TOL``, every earlier one
    to sqrt(``OUTER_TOL``), each within ``OUTER_MAX_ITER`` outer iterations.
    n_decay only subdivides the fixed span.  sigma_0 is ``KERNEL_SCALE``
    times the component's median residual norm at its a-priori vector;
    ``sigma0`` overrides it for every component when set (used to freeze
    sigma large and recover plain PCA).  ``center`` subtracts the column
    means first.
    """

    n_decay: int = 2
    center: bool = False
    sigma0: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """ValueError unless ``n_decay`` is an integer >= 1 and ``sigma0``,
        when set, a positive finite real (neither a bool).  ``center`` is
        checked with the input, by ``_scatter_evd``."""
        check_integer("n_decay", self.n_decay, 1)
        if self.sigma0 is not None:
            check_positive("sigma0", self.sigma0)


@dataclass
class ComponentDiagnostics:
    """How one component was found.  For an iterated component,
    ``outer_iterations`` counts the outer steps of all its rounds and
    ``final_sigma`` is the kernel size of its last finished round, NaN when
    the schedule stopped before any round finished.  ``converged`` is true
    when the schedule ran to its end and every round met its own tolerance
    within ``OUTER_MAX_ITER`` outer iterations, sqrt(``OUTER_TOL``) before
    the last grid point and ``OUTER_TOL`` at it.
    ``sigma_underflow`` marks a schedule stopped early, at the kernel-size
    floor or when every weight underflowed."""

    final_sigma: float
    outer_iterations: int
    converged: bool
    sigma_underflow: bool = False
    method: str = "mcpi"

    @classmethod
    def direct(cls, method: str) -> "ComponentDiagnostics":
        """A component solved in one step, without a kernel schedule."""
        return cls(final_sigma=float("nan"), outer_iterations=0, converged=True, method=method)

    def as_dict(self) -> dict:
        return {
            "final_sigma": self.final_sigma,
            "outer_iterations": self.outer_iterations,
            # The eigen-step is a direct solve, so there are no inner
            # iterations; the key stays because bench/run.py reads it.
            "inner_iterations": 0,
            "converged": self.converged,
            "sigma_underflow": self.sigma_underflow,
            "method": self.method,
        }


@dataclass
class PCAResult:
    """Ordered components (columns), a-priori eigenvalues, and per-component
    solver diagnostics."""

    components: np.ndarray
    apriori_eigenvalues: np.ndarray
    diagnostics: list[ComponentDiagnostics]


def _columns(components, p: int) -> np.ndarray:
    """The found components as the columns of a p x k matrix (k may be 0)."""
    return np.column_stack(components) if len(components) else np.empty((p, 0))


@dataclass(frozen=True)
class _Complement:
    """Coordinates of the samples in the complement of the found components.

    ``B`` is an orthonormal p x m basis of that complement (m = p - k),
    ``Y = X B`` is stored column-major for the weighted scatter, ``e``
    holds the row energies ||y_k||^2 and ``e_max`` the largest of them.
    """

    B: np.ndarray
    Y: np.ndarray
    e: np.ndarray
    e_max: float

    @classmethod
    def of(cls, X: np.ndarray, components) -> "_Complement":
        B = complement_basis(_columns(components, X.shape[1]))
        Y = np.asfortranarray(X @ B)
        e = np.einsum("ij,ij->i", Y, Y)
        return cls(B=B, Y=Y, e=e, e_max=float(e.max()))

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Unit vector of the projection of v onto the complement, in B."""
        u = self.B.T @ v
        nrm = np.linalg.norm(u)
        if nrm <= 1e-300:
            raise SingularDirectionError("start vector lies in the span of the found components")
        return u / nrm


def _fixed_point(cs: _Complement, sigma: float, u: np.ndarray, tol: float, max_iter: int):
    """Outer iterations at a fixed kernel size, in complement coordinates,
    accelerated by a secant step, until the map moves its iterate by at most
    ``tol``.

    Step k maps the iterate x_k to g_k, the top eigenvector of the weighted
    scatter at x_k, aligned in sign with x_k.  With f_k = g_k - x_k and
    df = f_k - f_{k-1}, the next iterate is the depth-1 Anderson (secant)
    mix g_k - gamma (g_k - g_{k-1}), gamma = df.f_k / df.df, normalised.
    The first step takes x = g_k, and so does a step with df.df zero or not
    finite or with gamma >= 1/2: a map that scales f by rho along df has
    gamma = rho / (rho - 1), so gamma < 1/2 is |rho| < 1, and the mix never
    extrapolates towards a repelling fixed point.  The loop stops when
    ||f_k|| <= ``tol`` and returns g_k, so the result is always an
    eigenvector of a weighted scatter, never a mixed iterate.

    Returns (u, outer iterations, converged, underflow).  When every weight
    underflows, ``u`` is the last g_k that still had weights (the start
    vector if that happens on the first step) and the count is the number of
    steps finished before.
    """
    Y = cs.Y
    t = np.empty(Y.shape[0])  # t = Y x, then the weights, in place
    wY = np.empty(Y.shape, order="F")  # the rows w_k y_k, in Y's layout
    x = u
    u_prev = f_prev = None
    for outer in range(max_iter):
        np.dot(Y, x, out=t)
        w = rank_one_weights(cs.e, t, sigma, out=t)
        if all_underflowed(w):
            return u, outer, False, True
        u = np.linalg.eigh(weighted_scatter(Y, w, out=wY))[1][:, -1]
        if u.dot(x) < 0.0:  # sign ambiguity must not stall convergence
            u = -u
        f = u - x
        if math.sqrt(f.dot(f)) <= tol:  # np.linalg.norm's arithmetic, without its overhead
            return u, outer + 1, True, False
        x = u
        if f_prev is not None:
            df = f - f_prev
            dd = float(df.dot(df))
            gamma = float(df.dot(f)) / dd if 0.0 < dd < np.inf else np.inf
            if gamma < 0.5:  # the secant model contracts: |rho| < 1
                x = u - gamma * (u - u_prev)
                x = x / math.sqrt(x.dot(x))
        u_prev, f_prev = u, f
    return u, max_iter, False, False


def _kernel_size(cs: _Complement, u: np.ndarray, floor: float) -> float:
    """``KERNEL_SCALE`` times the median residual norm sqrt(e - t^2), t = Y u,
    of the rows at ``u``, with squared residuals at or below the rounding
    ``floor`` counted as 0; the RMS residual when over half the rows have
    residual 0 (the RMS is 0 only when every row has, and the floor then
    stops the schedule)."""
    r2 = cs.e - (cs.Y @ u) ** 2
    r2[r2 <= floor] = 0.0
    r = np.sqrt(r2)
    mid = [(len(r) - 1) // 2, len(r) // 2]
    r.partition(mid)  # the median; np.median loads numpy.ma (1 MB) on first use
    scale = 0.5 * float(r[mid[0]] + r[mid[1]])
    return KERNEL_SCALE * (scale if scale > 0.0 else float(np.sqrt(np.mean(r2))))


def _shrinking_rounds(X, components, v, cfg):
    """One component: rounds at the kernel sizes sigma_0
    ``KERNEL_SPAN``^(r / (n_decay - 1)), r < n_decay, sharing one complement
    set-up, from ``v`` projected onto the complement of ``components``.

    sigma_0 is ``cfg.sigma0`` when set, else ``_kernel_size`` at that start.
    Each round starts from the fixed point of the one before and is solved by
    ``_fixed_point`` within ``OUTER_MAX_ITER`` outer iterations, to
    sqrt(``OUTER_TOL``) before the last round and to ``OUTER_TOL`` in it.
    The iteration keeps the sign its steps produce; ``fix_sign`` is applied
    once, to the direction the component reports.

    The schedule stops, with ``sigma_underflow``, at the last grid point
    above the floor 2 sigma^2 <= eps max e, or within a round in which every
    weight underflows; the component keeps the direction reached so far, and
    its ``final_sigma`` is NaN when no round finished.
    """
    cs = _Complement.of(X, components)
    u = cs.coordinates(v)
    floor = np.finfo(float).eps * cs.e_max  # the rounding floor, on 2 sigma^2 and on e - t^2
    sigma0 = float(cfg.sigma0) if cfg.sigma0 is not None else _kernel_size(cs, u, floor)
    last = cfg.n_decay - 1
    final_sigma = float("nan")
    outer_total = 0
    converged = True
    underflow = False
    for r in range(cfg.n_decay):
        sigma = sigma0 * KERNEL_SPAN ** (r / max(last, 1))
        if 2.0 * sigma * sigma <= floor:
            underflow = True
            break
        tol = OUTER_TOL if r == last else np.sqrt(OUTER_TOL)
        u, outer, round_converged, underflow = _fixed_point(cs, sigma, u, tol, OUTER_MAX_ITER)
        outer_total += outer
        if underflow:
            break
        final_sigma = sigma
        converged = converged and round_converged
    return fix_sign(cs.B @ u), ComponentDiagnostics(
        final_sigma=final_sigma,
        outer_iterations=outer_total,
        converged=converged and not underflow,
        sigma_underflow=underflow,
    )


def _scatter_evd(X, center: bool):
    """The checked input as floats (centred when asked) and the eigenpairs of
    X^T X / n.  Raises ValueError unless ``center`` is a bool (numpy's too),
    and DegenerateInputError unless X is n x p with n >= p >= 1 and finite,
    and X^T X fits in float64."""
    if not isinstance(center, (bool, np.bool_)):
        raise ValueError(f"center must be a bool, got {center!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DegenerateInputError(f"expected an n x p matrix, got shape {X.shape}")
    n, p = X.shape
    if n < p or p < 1:
        raise DegenerateInputError(f"need n >= p >= 1, got n={n}, p={p}")
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("input has non-finite entries (NaN or inf)")
    if center:
        X = X - X.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the sums is NaN
        S = X.T @ X / n
    if not np.all(np.isfinite(S)):
        raise DegenerateInputError(
            f"X^T X overflows float64 (max |x| = {np.max(np.abs(X)):g}); rescale the input"
        )
    return X, sym_evd(S)


def _prepare(X, cfg: MCPIConfig):
    X, apriori = _scatter_evd(X, cfg.center)
    lo, hi = apriori.values[-1], apriori.values[0]
    if lo <= 1e-10 * hi:
        ratio = lo / hi if hi > 0.0 else float("nan")
        raise DegenerateInputError(
            f"input is numerically rank deficient (lambda_min / lambda_max = {ratio:.3g}); "
            "drop or combine collinear columns"
        )
    return X, apriori


def fit(X, cfg: MCPIConfig | None = None) -> PCAResult:
    """Full robust decomposition via the kernel-shrinking schedule."""
    cfg = cfg if cfg is not None else MCPIConfig()
    X, apriori = _prepare(X, cfg)
    p = X.shape[1]
    components: list[np.ndarray] = []
    diags: list[ComponentDiagnostics] = []

    for i in range(p - 1):
        # Start at the a-priori eigenvector, with the kernel in units of the
        # residuals there, so the schedule ends at the same place for any n.
        v, diag = _shrinking_rounds(X, components, apriori.vectors[:, i], cfg)
        components.append(v)
        diags.append(diag)

    components.append(null_space_vector(_columns(components, p)))
    diags.append(ComponentDiagnostics.direct("null_space"))

    return PCAResult(
        components=np.column_stack(components),
        apriori_eigenvalues=apriori.values,
        diagnostics=diags,
    )


def standard_pca(X, center: bool = False) -> PCAResult:
    """Baseline: eigendecomposition of the (optionally centered) scatter /n."""
    X, pairs = _scatter_evd(X, center)
    return PCAResult(
        components=pairs.vectors,
        apriori_eigenvalues=pairs.values,
        diagnostics=[ComponentDiagnostics.direct("evd") for _ in range(X.shape[1])],
    )
