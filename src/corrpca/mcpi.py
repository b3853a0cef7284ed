"""Correntropy power-iteration PCA: ``fit`` and the plain-PCA baseline.

``fit`` finds the components one at a time.  An a-priori eigendecomposition
of X^T X / n seeds each component, its kernel size sigma_0 is
``KERNEL_SCALE`` times the median residual norm of the samples at that
a-priori vector (the scale of the reconstruction errors whose correntropy
the fit maximises, as in He et al., "Robust Principal Component Analysis
Based on Maximum Correntropy Criterion", IEEE TIP 2011), the kernel shrinks
in n_decay geometric rounds from sigma_0 to sigma_0 KERNEL_SPAN, and the
last component is the one direction left in the complement of the others.
Each round is a fixed-point loop at one kernel size: freeze the sample
weights, take the top eigenvector of the weighted scatter compressed to the
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
u, accelerated by Anderson mixing (Walker & Ni, "Anderson acceleration for
fixed-point iterations", SIAM J. Numer. Anal. 2011): in a complement of
m >= 3 coordinates each step mixes the last three images along their two
differences, and falls back to the depth-1 (secant) mix of the last two
images, and then to the plain image, when the model of the map a mix rests
on is ill-conditioned or does not contract.  The iterate lives on the unit
sphere, whose tangent has m - 1 dimensions, so in a complement of m = 2 the
one difference already spans it and only the secant mix is used.  The loop
stops once the map moves its iterate by at most the round's tolerance and
returns that image, so every direction it returns is an eigenvector of a
weighted scatter.  A
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
components, shared by a component's rounds: an orthonormal p x m basis B of
that complement (m = p - k), Y = X B stored column-major, and the row
energies e = ||y||^2.  Complements nest: that of k + 1 components is the
complement of one unit vector inside that of the first k.  So ``fit`` walks
one chain, as He et al. deflate: it starts at B = I, Y = X, and after a
component found at coordinates u it steps to H = ``linalg.complement_basis``
of the one column u (the eigenvectors of u u^T for its zero eigenvalue, one
m x m ``eigh``), B <- B H and Y <- Y H, and recomputes e.  The component
is B u, and once the chain reaches m = 1 the last component is the one
column of B.  For v = B u the residual (I - P - v v^T) x is y - (y.u) u, so
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
``w[:, None] * Y`` has, so the scatter's product is the same gemm), step
norms are sqrt(f.f), the arithmetic of ``np.linalg.norm``, and each mixing
step reuses the last step's difference of images and its squared norm.
Every iterate is bit for bit that of the allocating calls.

``fit`` and its plain eigendecomposition baseline ``standard_pca`` both work
at unit scale.  One reduction, max |x|, is the finiteness check and gives
the exponent e with 2^(e - 1) <= max |x| < 2^e; the input times 2^-e is an
exact copy in its own layout, every |x| below 1, centred in place when asked.
So X^T X / n cannot overflow, and no scatter is subnormal merely because the
data are small: any finite input is fitted.  Scaling by a power of two
commutes with rounding away from the subnormal range, so for data whose
X^T X / n is normal every output is bit for bit that of the same arithmetic
on the unscaled data.  Three values cross the boundary: a user ``sigma0`` is
multiplied by 2^-e on the way in (a ValueError if that leaves float64; one
that rounds to 0 stops the schedule at the floor), and on the way out each
``final_sigma`` by 2^e and the a-priori eigenvalues by 4^e, rounded as IEEE
does beyond float64's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correntropy import all_underflowed, rank_one_weights, weighted_scatter
from .linalg import (
    SingularDirectionError,
    as_real,
    check_integer,
    check_positive,
    complement_basis,
    fix_sign,
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
# float64's machine epsilon: a schedule's rounding floor is EPS max ||y||^2.
EPS = np.finfo(float).eps


class DegenerateInputError(ValueError):
    """Input matrix is complex, too small, has non-finite entries, or is
    (numerically) rank deficient.  Its scale is never a fault: ``fit`` and
    ``standard_pca`` work on the input times the power of two that brings
    max |x| into [1/2, 1), so any finite input is fitted."""


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
    ``sigma0``, in the input's units, overrides it for every component when
    set (used to freeze sigma large and recover plain PCA).  ``center``
    subtracts the column means first.
    """

    n_decay: int = 2
    center: bool = False
    sigma0: float | None = None

    def __post_init__(self) -> None:
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
    solver diagnostics.

    The fit runs on the input times 2^-e, with 2^(e - 1) <= max |x| < 2^e,
    and the eigenvalues and each ``final_sigma`` are mapped back to the
    input's units, times 4^e and 2^e.  Beyond float64's range those values
    round as IEEE does, to inf above and to a subnormal or 0 below, with no
    warning; the components are directions and need no mapping."""

    components: np.ndarray
    apriori_eigenvalues: np.ndarray
    diagnostics: list[ComponentDiagnostics]


@dataclass(frozen=True)
class _Complement:
    """Coordinates of the samples in the complement of the found components.

    ``B`` is an orthonormal p x m basis of that complement (m = p - k),
    ``Y = X B`` is stored column-major for the weighted scatter, ``e``
    holds the row energies ||y_k||^2 and ``e_max`` the largest of them.
    ``fit`` starts its chain at ``of(I, X)``, and ``without`` steps from
    the complement of k components to that of k + 1.
    """

    B: np.ndarray
    Y: np.ndarray
    e: np.ndarray
    e_max: float

    @classmethod
    def of(cls, B: np.ndarray, Y: np.ndarray) -> "_Complement":
        Y = np.asfortranarray(Y)
        e = np.einsum("ij,ij->i", Y, Y)
        return cls(B=B, Y=Y, e=e, e_max=float(e.max()))

    def without(self, u: np.ndarray) -> "_Complement":
        """The complement of the unit coordinates ``u`` inside this one:
        with H the one-column complement basis of u, B H and Y H."""
        H = complement_basis(u[:, None])
        return self.of(self.B @ H, self.Y @ H)

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Unit vector of the projection of v onto the complement, in B."""
        u = self.B.T @ v
        nrm = math.sqrt(u.dot(u))  # np.linalg.norm's arithmetic, without its overhead
        if nrm <= 1e-300:
            raise SingularDirectionError("start vector lies in the span of the found components")
        return u / nrm


def _fixed_point(cs: _Complement, sigma: float, u: np.ndarray, tol: float, max_iter: int):
    """Outer iterations at a fixed kernel size, in complement coordinates,
    accelerated by Anderson mixing, until the map moves its iterate by at
    most ``tol``.

    Step k maps the iterate x_k to g_k, the top eigenvector of the weighted
    scatter at x_k, aligned in sign with x_k.  With f_k = g_k - x_k and the
    differences df_k = f_k - f_{k-1}, the next iterate is, normalised, the
    first of these that applies:

    - the depth-2 mix g_k - g1 (g_k - g_{k-1}) - g2 (g_{k-1} - g_{k-2}),
      where (g1, g2) minimise ||f_k - g1 df_k - g2 df_{k-1}||, solved from
      the 2 x 2 normal equations by Cramer's rule.  It needs m >= 3 and two
      differences, a Gram determinant above 1e-2 ||df_k||^2 ||df_{k-1}||^2
      (the differences far from parallel), and g1 < 1 and g1 + g2 < 1/2,
      the contraction test below over both differences;
    - the depth-1 (secant) mix g_k - gamma (g_k - g_{k-1}), gamma =
      df_k.f_k / df_k.df_k, when df_k.df_k is positive and finite and
      gamma < 1/2: a map that scales f by rho along df_k has gamma =
      rho / (rho - 1), so gamma < 1/2 is |rho| < 1, and the mix never
      extrapolates towards a repelling fixed point;
    - the plain image g_k, as on the first step.

    The iterate is a unit vector, so its steps lie close to the sphere's
    tangent, which has m - 1 dimensions.  In a complement of m = 2 one
    difference spans that tangent and a second adds only the curvature
    term, so there only the secant mix is tried.  The loop stops when
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
    two_tangents = Y.shape[1] >= 3  # the unit sphere's tangent at x has m - 1 dimensions
    x = u
    u_prev = f_prev = df_prev = None
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
            du = u - u_prev  # g_k - g_{k-1}
            dd = float(df.dot(df))
            c = float(df.dot(f))
            mixed = False
            if df_prev is not None:
                # least squares over both differences: the normal equations
                # [dd a; a bb] (g1, g2) = (c, c_prev), solved by Cramer's rule
                # when the two differences are far from parallel; bb and
                # g_{k-1} - g_{k-2} are the last step's dd and du
                a = float(df.dot(df_prev))
                det = dd * bb - a * a
                if det > 1e-2 * dd * bb:
                    c_prev = float(df_prev.dot(f))
                    g1 = (c * bb - c_prev * a) / det
                    g2 = (dd * c_prev - a * c) / det
                    if g1 < 1.0 and g1 + g2 < 0.5:  # the two-difference model contracts
                        x = u - g1 * du - g2 * du_prev
                        x = x / math.sqrt(x.dot(x))
                        mixed = True
            if not mixed:
                gamma = c / dd if 0.0 < dd < np.inf else np.inf
                if gamma < 0.5:  # the secant model contracts: |rho| < 1
                    x = u - gamma * du
                    x = x / math.sqrt(x.dot(x))
            if two_tangents:
                df_prev, bb, du_prev = df, dd, du
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
    # the median; np.median loads numpy.ma (1 MB) on first use.  sqrt is
    # monotone, so the middle values of r are the roots of those of r^2,
    # and the lower one is the largest below the upper one.
    k = len(r2) // 2
    s = np.partition(r2, k)
    lo = s[k] if len(r2) % 2 else s[:k].max()
    scale = 0.5 * (math.sqrt(lo) + math.sqrt(s[k]))
    return KERNEL_SCALE * (scale if scale > 0.0 else math.sqrt(r2.mean()))


def _shrinking_rounds(cs: _Complement, v, cfg: MCPIConfig, scale: int):
    """One component: rounds at the kernel sizes sigma_0
    ``KERNEL_SPAN``^(r / (n_decay - 1)), r < n_decay, in the complement
    ``cs`` of the components already found, from ``v`` projected onto it.

    ``cs`` holds the input times 2^-``scale``.  sigma_0 is ``cfg.sigma0``
    2^-``scale`` when set (ValueError when that is beyond float64), else
    ``_kernel_size`` at that start, and the diagnostics are in the input's
    units: ``final_sigma`` is the last finished round's size times 2^``scale``.
    Each round starts from the fixed point of the one before and is solved by
    ``_fixed_point`` within ``OUTER_MAX_ITER`` outer iterations, to
    sqrt(``OUTER_TOL``) before the last round and to ``OUTER_TOL`` in it.
    Returns the direction reached, in the coordinates of ``cs``, with the
    sign its steps produced, and the component's diagnostics.

    The schedule stops, with ``sigma_underflow``, at the last grid point
    above the floor 2 sigma^2 <= eps max e, or within a round in which every
    weight underflows; the component keeps the direction reached so far, and
    its ``final_sigma`` is NaN when no round finished.
    """
    u = cs.coordinates(v)
    floor = EPS * cs.e_max  # the rounding floor, on 2 sigma^2 and on e - t^2
    sigma0 = _kernel_size(cs, u, floor) if cfg.sigma0 is None else _ldexp(cfg.sigma0, -scale)
    if sigma0 == math.inf:
        raise ValueError(f"sigma0 = {cfg.sigma0!r} is beyond float64 once the input is scaled by "
                         f"2^{-scale} to max |x| < 1")
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
    return u, ComponentDiagnostics(
        final_sigma=_ldexp(final_sigma, scale),
        outer_iterations=outer_total,
        converged=converged and not underflow,
        sigma_underflow=underflow,
    )


def _scatter_evd(X, center: bool):
    """The checked input at unit scale (centred when asked), the exponent e
    that scales it back, and the eigenpairs of its X^T X / n.

    One reduction, max |x|, is both the finiteness check and the scale:
    with 2^(e - 1) <= max |x| < 2^e, X 2^-e is an exact copy whose every
    |x| is below 1, so X^T X / n cannot overflow, and only a column far
    below the largest can underflow, which is a rank problem, not a scale
    problem.  Raises ValueError unless ``center``
    is a bool (numpy's too), and DegenerateInputError unless X is real (a
    complex dtype is rejected, not cast to its real part), n x p with
    n >= p >= 1 and finite."""
    if not isinstance(center, (bool, np.bool_)):
        raise ValueError(f"center must be a bool, got {center!r}")
    X = as_real(X, DegenerateInputError)
    if X.ndim != 2:
        raise DegenerateInputError(f"expected an n x p matrix, got shape {X.shape}")
    n, p = X.shape
    if n < p or p < 1:
        raise DegenerateInputError(f"need n >= p >= 1, got n={n}, p={p}")
    top = float(abs(X).max())
    if not top < np.inf:
        raise DegenerateInputError("input has non-finite entries (NaN or inf)")
    scale = math.frexp(top)[1]
    X = np.ldexp(X, -scale)  # a new array in X's layout, which the bits of X^T X depend on
    if center:
        X -= X.mean(axis=0)
    return X, scale, sym_evd(X.T @ X / n)


def _ldexp(x: float, k: int) -> float:
    """x 2^k, rounded as IEEE does: inf beyond float64's range (where
    math.ldexp raises and np.ldexp warns), subnormal or 0 below it."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _result(components, values, scale: int, diags) -> PCAResult:
    """The result with the eigenvalues ``values`` of the scatter of the input
    times 2^-``scale`` mapped to the input's units, times 4^``scale``."""
    values = np.array([_ldexp(v, 2 * scale) for v in values.tolist()])
    return PCAResult(components=components, apriori_eigenvalues=values, diagnostics=diags)


def fit(X, cfg: MCPIConfig | None = None) -> PCAResult:
    """Full robust decomposition via the kernel-shrinking schedule, run on
    the input at unit scale (see ``PCAResult``).  ValueError when ``sigma0``
    is beyond float64 at that scale."""
    cfg = cfg if cfg is not None else MCPIConfig()
    X, scale, apriori = _scatter_evd(X, cfg.center)
    lo, hi = apriori.values[-1], apriori.values[0]
    if lo <= 1e-10 * hi:
        ratio = lo / hi if hi > 0.0 else float("nan")
        raise DegenerateInputError(
            f"input is numerically rank deficient (lambda_min / lambda_max = {ratio:.3g}); "
            "drop or combine collinear columns"
        )
    p = X.shape[1]
    cs = _Complement.of(np.eye(p), X)
    components: list[np.ndarray] = []
    diags: list[ComponentDiagnostics] = []

    for i in range(p - 1):
        # Start at the a-priori eigenvector, with the kernel in units of the
        # residuals there, so the schedule ends at the same place for any n.
        u, diag = _shrinking_rounds(cs, apriori.vectors[:, i], cfg, scale)
        components.append(fix_sign(cs.B @ u))
        diags.append(diag)
        cs = cs.without(u)

    components.append(fix_sign(cs.B[:, 0]))
    diags.append(ComponentDiagnostics.direct("null_space"))
    return _result(np.column_stack(components), apriori.values, scale, diags)


def standard_pca(X, center: bool = False) -> PCAResult:
    """Baseline: eigendecomposition of the (optionally centered) scatter /n."""
    X, scale, pairs = _scatter_evd(X, center)
    diags = [ComponentDiagnostics.direct("evd") for _ in range(X.shape[1])]
    return _result(pairs.vectors, pairs.values, scale, diags)
