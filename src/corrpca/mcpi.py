"""Correntropy power-iteration PCA: ``fit`` and the plain-PCA baseline.

``fit`` finds the components one at a time, each by one round of the
paper's power iteration at one kernel size: freeze the sample weights, take
the top eigenvector of the weighted scatter compressed to the complement of
the components already found, (I - P) S (I - P), refresh the weights,
repeat.  An a-priori eigendecomposition of X^T X / n sizes the kernel:
sigma is ``KERNEL_SCALE`` (1.2) times the median residual norm of the
samples at the component's a-priori vector, the scale of the reconstruction
errors whose correntropy the fit maximises (as in He et al., "Robust
Principal Component Analysis Based on Maximum Correntropy Criterion", IEEE
TIP 2011), where many samples keep weight and the outliers do not.  It is a
per-sample quantity, so the fit is the same for any n drawn from one
distribution (stacking X on itself leaves it unchanged).  Component 1
starts at its a-priori vector, each later one where the component before
left off (the chain, below), and the last component is the one direction
left in the complement of the others.
The round iterates the map u -> top eigenvector of the weighted scatter at
u, accelerated by Anderson mixing (Walker & Ni, "Anderson acceleration for
fixed-point iterations", SIAM J. Numer. Anal. 2011): in a complement of
m >= 3 coordinates each step mixes the last three images along their two
differences, and falls back to the depth-1 (secant) mix of the last two
images, and then to the plain image, when the model of the map a mix rests
on is ill-conditioned or does not contract.  The iterate lives on the unit
sphere, whose tangent has m - 1 dimensions, so in a complement of m = 2 the
one difference already spans it and only the secant mix is used.  The loop
stops once the map moves its iterate by at most ``OUTER_TOL`` (1e-8) and
returns that image, so every direction it returns is an eigenvector of a
weighted scatter.  A component is ``converged`` when its round stops so
within ``OUTER_MAX_ITER`` (200) outer iterations.  It stops early when the
kernel carries no information: before the round at the floor
2 sigma^2 <= eps max ||y||^2 (only a small ``sigma0``, or a complement
without variance, gets there), or within it when every sample weight
underflows.  The component then keeps the direction reached so far, reports
``sigma_underflow=True`` and ``converged=False``, and its ``final_sigma`` is
NaN.
The iteration keeps whatever sign its steps produce; the sign convention of
``linalg.fix_sign`` is applied once, to the direction a component reports.

The loop runs in the coordinates of the complement of the k found
components: an orthonormal p x m basis B of that complement (m = p - k),
Y = X B stored column-major, and the row energies e = ||y||^2.  Complements
nest: that of k + 1 components is the complement of one unit vector inside
that of the first k.  So ``fit`` walks one chain, as He et al. deflate: it
starts at B = I, Y = X, and after a component found at coordinates u it
steps to an orthonormal m x (m - 1) basis H of u's complement, B <- B H and
Y <- Y H, and recomputes e.  It forms Y H in place, one block of rows at a
time, in the first m - 1 columns of Y, whose column-major view is the next
Y.  The component is B u.  The last eigen-step of
u's round already holds one: it eigendecomposed the weighted scatter whose
top eigenvector u is, so with its eigenvectors V (eigenvalues ascending,
V[:, -1] = +-u) the chain takes H = V[:, :-1] and no ``eigh`` of its own.
The last column of H, the scatter's second eigenvector, is the direction of
most weighted variance left once u is taken, at the weights that found u,
and the next component starts there, at the last axis of its coordinates:
closer to its robust fixed point than its a-priori vector.  Its kernel
size is still taken at its a-priori vector, so the start moves and the
fixed-point problem does not.  Where the components already found span
that vector up to rounding (a projection of norm at most sqrt(eps) onto
the complement, as on data whose rows each lie on one axis), its
direction there is noise, and the last axis stands in for it.  A
component that stopped before any eigen-step finished has no V: it keeps
its a-priori vector, the chain steps to H = ``linalg.complement_basis`` of
the one column u (one m x m ``eigh``), and the next component starts at its
own a-priori vector.  The last step, to m = 1, forms B H alone: its one
column is the last component, and no round reads Y H or e there.  For
v = B u the residual (I - P - v v^T) x is y - (y.u) u, so with t = Y u
each outer iteration is

    w = exp(-max(e - t^2, 0) / 2 sigma^2),   u <- top eigenvector of Y^T diag(w) Y,

an O(n m) weight pass and an m x m eigensolve in place of the p x p residual
operator, its n x p x p product and the (I - P) S (I - P) sandwich.
Computing ||y||^2 - t^2 instead of the residual's norm cancels for rows
nearly parallel to u; its absolute error is a few ulps of ||y||^2, so the
exponent is off by at most about eps ||y||^2 / 2 sigma^2, and the clamp at 0
keeps every weight in (0, 1].  At the floor that error reaches about 1 for
the largest exponent, so the weights are rounding noise; the floor also lies
far above the sizes at which an exponent overflows or 2 sigma^2 is 0.

The eigen-step is ``linalg.eigh_vectors``: ``np.linalg.eigh``'s
eigenvectors, from a closed-form 2 x 2 rotation in a complement of m = 2.
``_fixed_point`` looks it up on the ``linalg`` module at every step, with no
local binding, so a tracer that wraps the module attribute sees each call.
At n = 400 and m <= 3 each of those steps is a few microseconds of
arithmetic, so ``_fixed_point`` keeps numpy's per-call cost down and does
once per round what a round holds fixed: it checks sigma (a ValueError
before any step) and forms 2 sigma^2 for ``correntropy.rank_one_kernel``,
the unchecked arithmetic of ``rank_one_weights``, and it allocates two
buffers and reuses them at every outer iteration, a length-n
vector that receives t = Y u and then, in place, the weights, and a
Fortran-ordered block of min(n, ``correntropy.block_rows(m)``) x m that
receives the scaled rows w_k y_k of ``weighted_scatter``'s blocks (the
layout ``w[:, None] * Y`` has, so the scatter's products are the same
gemms), step norms are sqrt(f.f), the arithmetic of ``np.linalg.norm``, and
each mixing step reuses the last step's difference of images and its
squared norm.
Every iterate is bit for bit that of the checked, allocating calls.  The
data's checks stay at the public boundary: ``_scatter_evd`` checks the input
once, and hands X^T X / n, symmetric by construction and finite at unit
scale, to ``linalg.eigh_descending`` without ``sym_evd``'s checks.

Rank deficiency is a state, not an error.  Where the data have no variance
left off a component's a-priori vector, its residuals are all 0, so it
stops at the kernel-size floor, keeps that vector and reports
``sigma_underflow``.  With rank r < p and the default sigma0 that is the
r-th component, the last with variance (one collinear column flags the one
before the last).  Each complement after it holds only the rounding of the
chain's products, at most eps times the data's largest row energy, and its
component stops, flagged, before any round, so a user-set sigma0 cannot
fit that noise either.  The directions without variance are the last
p - r components; the very last, the chain's final column, is never
flagged.  Columns that differ only in scale are fitted like any others.

``fit`` and its plain eigendecomposition baseline ``standard_pca`` both work
at unit scale.  One reduction, max |x|, is the finiteness check and gives
the exponent e with 2^(e - 1) <= max |x| < 2^e; the input times 2^-e is an
exact column-major copy, every |x| below 1, centred in place when asked.
It is column-major whatever the input's layout, so its column means (numpy
sums pairwise only along a contiguous axis), and with them a centred fit,
have the same bits for a C- and a Fortran-ordered input.
So X^T X / n cannot overflow, and no scatter is subnormal merely because the
data are small: any finite input is fitted.  Scaling by a power of two
commutes with rounding away from the subnormal range, so for data whose
X^T X / n is normal every output is bit for bit that of the same arithmetic
on the unscaled data.  Only ``fit`` and ``_result`` cross the boundary:
``fit`` multiplies a user ``sigma0`` by 2^-e once, before the chain starts
(a ValueError if that leaves float64; one that rounds to 0 stops every
component at the floor), and ``_result`` multiplies each ``final_sigma`` by
2^e and the a-priori eigenvalues by 4^e, rounded as IEEE does beyond
float64's range.  Every component's round works at unit scale.

Besides the caller's input, ``fit`` holds one n x p array, O(n) vectors and
one block of the scatter's scaled rows.  The array is the column-major
unit-scale copy: it is the chain's first Y, and each chain step overwrites
it with Y H, so the complement of k components is dead once that of k + 1
exists.  ``weighted_scatter`` scales and multiplies one block of
``correntropy.BLOCK_BYTES`` (256 KiB) at a time, which also keeps the block
in cache for the product, and the chain step reads and writes one block of
Y at a time.  max |x| is max(max x, -min x), which allocates no abs(X).
The peak that tracemalloc (numpy reports its allocations to it) reads
during a fit is 2.01, 1.34 and 1.12 times the input's bytes at n = 40000
and p = 3, 10 and 30, and 1.30 at 200000 x 10, the vectors e and t making up
most of the rest.  When n is at most one block's rows the block is n x m,
and below n = 4097 numpy's ufunc buffer adds up to 8192 values (64 kB), the
weights broadcast over the scatter's columns: 2.64 times the input at
2000 x 10 and 3.75 at 2000 x 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correntropy import all_underflowed, block_rows, rank_one_kernel, weighted_scatter
from .linalg import as_real, check_positive, complement_basis, eigh_descending, fix_sign
# Reference names that bench/tracing.py and tests/test_acceptance.py read here.
from .reference import DeflationState, build_deflated_operator, woodbury_update


# A component's kernel size, in units of the median residual norm at its
# a-priori vector: the scale of the residuals, where many samples keep weight.
KERNEL_SCALE = 1.2
# The step size at which a round stops, and the outer iterations it may take.
OUTER_TOL = 1e-8
OUTER_MAX_ITER = 200
# float64's machine epsilon: the rounding floor of 2 sigma^2 is EPS max ||y||^2.
EPS = np.finfo(float).eps


class DegenerateInputError(ValueError):
    """Input matrix is complex, not n x p with n >= p >= 1, or has non-finite
    entries.  Its scale is never a fault: ``fit`` and ``standard_pca`` work
    on the input times the power of two that brings max |x| into [1/2, 1),
    so any finite input is fitted.  Nor is its rank: a component whose
    residuals are all 0 stops at the kernel-size floor and
    reports ``sigma_underflow``, and the directions without variance are
    the last components."""


@dataclass(frozen=True)
class MCPIConfig:
    """The kernel size and the centring of the input; frozen, and checked on
    construction (and so on ``dataclasses.replace``).

    ``fit`` runs one round for each component, at one kernel size, solved to
    ``OUTER_TOL`` within ``OUTER_MAX_ITER`` outer iterations.  That size is
    ``KERNEL_SCALE`` times the component's median residual norm at its
    a-priori vector; ``sigma0``, in the input's units, is the size of every
    component's round when set (a large one recovers plain PCA).
    ``center`` subtracts the column means first.
    """

    center: bool = False
    sigma0: float | None = None

    def __post_init__(self) -> None:
        """ValueError unless ``sigma0``, when set, is a positive finite real
        (not a bool).  ``center`` is checked with the input, by
        ``_scatter_evd``."""
        if self.sigma0 is not None:
            check_positive("sigma0", self.sigma0)


@dataclass
class ComponentDiagnostics:
    """How one component was found.  For an iterated component,
    ``outer_iterations`` counts the outer steps of its round and
    ``final_sigma`` is the round's kernel size, NaN when the component
    stopped early.  ``converged`` is true when the round met ``OUTER_TOL``
    within ``OUTER_MAX_ITER`` outer iterations.  ``sigma_underflow`` marks a
    component stopped early, at the kernel-size floor before its round or
    when every weight underflowed in it."""

    final_sigma: float
    outer_iterations: int
    converged: bool
    sigma_underflow: bool = False
    method: str = "mcpi"

    @classmethod
    def direct(cls, method: str) -> "ComponentDiagnostics":
        """A component solved in one step, without a round of outer iterations."""
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
    ``fit`` starts its chain at ``of(I, X)``, X its column-major unit-scale
    copy, and steps from the complement of k components to that of k + 1
    with ``of(B H, Y H)``.  It forms Y H in place, in the first m - 1 columns
    of Y, so Y H is the column-major view ``Y[:, :-1]`` and ``of`` copies
    nothing; the complement of k components is dead from then on, its Y
    overwritten.
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

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Unit vector of the projection of the unit vector v onto the
        complement, in B.  When that projection's norm is at most sqrt(eps),
        v lies in the span of the found components up to rounding and its
        direction is noise, so the last axis of the coordinates stands in:
        the start ``fit`` hands down after an eigen-step, a direction fixed
        by the data, not by their rotation."""
        u = self.B.T @ v
        nrm2 = u.dot(u)
        if nrm2 <= EPS:
            u = np.zeros(len(u))
            u[-1] = 1.0
            return u
        return u / math.sqrt(nrm2)  # np.linalg.norm's arithmetic, without its overhead


def _fixed_point(cs: _Complement, sigma: float, u: np.ndarray, max_iter: int):
    """Outer iterations at a fixed kernel size, in complement coordinates,
    accelerated by Anderson mixing, until the map moves its iterate by at
    most ``OUTER_TOL``.

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
    ||f_k|| <= ``OUTER_TOL`` and returns g_k, so the result is always an
    eigenvector of a weighted scatter, never a mixed iterate.

    Each step's eigenvectors come from ``linalg.eigh_vectors``, looked up
    on the module every time, with no local binding, so a tracer can wrap
    the eigen-step by name.

    ValueError, before any step, unless ``sigma`` is positive and finite.
    Returns (u, outer iterations, converged, underflow, V), V the m x m
    eigenvector matrix of the step whose image u is, eigenvalues ascending,
    so V[:, -1] = +-u.  When every weight underflows, ``u`` is the last g_k
    that still had weights and the count is the number of steps finished
    before; if that happens on the first step, ``u`` is the start vector and
    V is None.
    """
    # what stays fixed for the round: the kernel size, checked once (a
    # ValueError before any step), 2 sigma^2, the rows and their energies
    sigma = check_positive("kernel size", sigma)
    two_sigma2 = 2.0 * sigma * sigma
    Y, e = cs.Y, cs.e
    t = np.empty(Y.shape[0])  # t = Y x, then the weights, in place
    # the rows w_k y_k of one block of the scatter, in Y's layout
    wY = np.empty((min(Y.shape[0], block_rows(Y.shape[1])), Y.shape[1]), order="F")
    two_tangents = Y.shape[1] >= 3  # the unit sphere's tangent at x has m - 1 dimensions
    x = u
    V = u_prev = f_prev = df_prev = None
    for outer in range(max_iter):
        np.dot(Y, x, out=t)
        w = rank_one_kernel(e, t, two_sigma2, out=t)
        if all_underflowed(w):
            return u, outer, False, True, V
        V = linalg.eigh_vectors(weighted_scatter(Y, w, out=wY))
        u = V[:, -1]
        if u.dot(x) < 0.0:  # sign ambiguity must not stall convergence
            u = -u
        f = u - x
        if math.sqrt(f.dot(f)) <= OUTER_TOL:  # np.linalg.norm's arithmetic, without its overhead
            return u, outer + 1, True, False, V
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
    return u, max_iter, False, False, V


def _kernel_size(cs: _Complement, u: np.ndarray, floor: float) -> float:
    """``KERNEL_SCALE`` times the median residual norm sqrt(e - t^2), t = Y u,
    of the rows at ``u``, with squared residuals at or below the rounding
    ``floor`` counted as 0; the RMS residual when over half the rows have
    residual 0 (the RMS is 0 only when every row has, and the floor then
    stops the component)."""
    r2 = cs.e - (cs.Y @ u) ** 2
    r2[r2 <= floor] = 0.0
    # the median; np.median loads numpy.ma (1 MB) on first use.  sqrt is
    # monotone, so the middle values of r are the roots of those of r^2,
    # and the lower one is the largest below the upper one.
    k = len(r2) // 2
    s = np.partition(r2, k)
    lo = s[k] if len(r2) % 2 else s[:k].max()
    median = 0.5 * (math.sqrt(lo) + math.sqrt(s[k]))
    return KERNEL_SCALE * (median if median > 0.0 else math.sqrt(r2.mean()))


def _solve_component(cs: _Complement, v: np.ndarray, sigma: float | None, start: np.ndarray | None):
    """One component: one round of ``_fixed_point`` in the complement ``cs``
    of the components already found, at the kernel size ``sigma`` in the
    units of ``cs``, or at ``_kernel_size`` at the projection of the
    a-priori vector ``v`` when ``sigma`` is None, wherever the round starts.
    It starts at the unit vector ``start`` in the coordinates of ``cs``, or
    at that projection when ``start`` is None.  Returns the direction
    reached, in those coordinates, with the sign its steps produced, the
    eigenvector matrix V of the eigen-step that produced it (V[:, -1] =
    +-u; ``_fixed_point``), and the component's diagnostics, whose
    ``final_sigma`` is the round's kernel size.  When no eigen-step
    finished, V is None and the direction is ``cs.coordinates(v)``,
    whatever ``start`` is.

    The component stops early, with ``sigma_underflow`` and a NaN
    ``final_sigma``: before the round at the floor 2 sigma^2 <= eps max e
    (``sigma`` = 0 always is), or within it when every weight underflows,
    keeping the direction reached so far.
    """
    u = cs.coordinates(v)
    floor = EPS * cs.e_max  # the rounding floor, on 2 sigma^2 and on e - t^2
    if sigma is None:
        sigma = _kernel_size(cs, u, floor)
    if 2.0 * sigma * sigma <= floor:
        x, outer, converged, underflow, V = u, 0, False, True, None
    else:
        x, outer, converged, underflow, V = _fixed_point(cs, sigma, u if start is None else start,
                                                         OUTER_MAX_ITER)
    return u if V is None else x, V, ComponentDiagnostics(
        final_sigma=math.nan if underflow else sigma,
        outer_iterations=outer,
        converged=converged,
        sigma_underflow=underflow,
    )


def _scatter_evd(X, center: bool):
    """The checked input at unit scale (centred when asked), the exponent e
    that scales it back, and the eigenpairs of its X^T X / n.

    One reduction, max |x|, is both the finiteness check and the scale:
    with 2^(e - 1) <= max |x| < 2^e, X 2^-e is an exact copy whose every
    |x| is below 1, so X^T X / n cannot overflow, and only a column far
    below the largest can underflow, which the kernel-size floor reports as
    a direction without variance.  Raises ValueError unless ``center``
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
    top = float(max(X.max(), -X.min()))  # max |x|, without an abs(X) temporary
    if not top < np.inf:
        raise DegenerateInputError("input has non-finite entries (NaN or inf)")
    scale = math.frexp(top)[1]
    # a new column-major array, whatever X's layout: the chain's first Y, and
    # the layout the bits of the centring's column means depend on (numpy
    # sums pairwise only along a contiguous axis)
    X = np.ldexp(X, -scale, order="F")
    if center:
        X -= X.mean(axis=0)
    # X^T X is symmetric by construction (numpy forms it with one syrk) and
    # finite at unit scale, so the eigensolver skips sym_evd's checks
    return X, scale, eigh_descending(X.T @ X / n)


def _ldexp(x: float, k: int) -> float:
    """x 2^k, rounded as IEEE does: inf beyond float64's range (where
    math.ldexp raises and np.ldexp warns), subnormal or 0 below it."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _result(components, values, scale: int, diags) -> PCAResult:
    """The result of a fit of the input times 2^-``scale``, with the
    eigenvalues ``values`` of its scatter and each ``final_sigma`` mapped to
    the input's units, times 4^``scale`` and 2^``scale``."""
    values = np.array([_ldexp(v, 2 * scale) for v in values.tolist()])
    for d in diags:
        d.final_sigma = _ldexp(d.final_sigma, scale)
    return PCAResult(components=components, apriori_eigenvalues=values, diagnostics=diags)


def fit(X, cfg: MCPIConfig | None = None) -> PCAResult:
    """Full robust decomposition, one round of outer iterations per
    component, run on the input at unit scale (see ``PCAResult``).
    ValueError, before any round, when ``sigma0`` is beyond float64 at that
    scale."""
    cfg = cfg if cfg is not None else MCPIConfig()
    X, scale, apriori = _scatter_evd(X, cfg.center)
    sigma0 = None if cfg.sigma0 is None else _ldexp(cfg.sigma0, -scale)
    if sigma0 == math.inf:
        raise ValueError(f"sigma0 = {cfg.sigma0!r} is beyond float64 once the input is scaled by "
                         f"2^{-scale} to max |x| < 1")
    p = X.shape[1]
    B = np.eye(p)
    cs = _Complement.of(B, X)  # X is the chain's Y, overwritten by its steps
    data_floor = EPS * cs.e_max
    components: list[np.ndarray] = []
    diags: list[ComponentDiagnostics] = []

    start = None
    for i in range(p - 1):
        # the kernel size: sigma0, or None to size it at the residuals at
        # the a-priori eigenvector (the same for any n); 0, at the floor,
        # in a complement below the data's rounding floor, which holds
        # only the rounding of the chain's products.  The round starts at
        # the axis the component before handed down, or at that vector
        sigma = 0.0 if cs.e_max <= data_floor else sigma0
        u, V, diag = _solve_component(cs, apriori.vectors[:, i], sigma, start)
        components.append(fix_sign(cs.B @ u))
        diags.append(diag)
        # the complement of u inside this one: the other eigenvectors of its
        # last eigen-step, whose top one, the new coordinates' last axis,
        # starts the next component, else the eigenvectors of u u^T for its
        # zero eigenvalue; at m = 1 only its basis is read
        if V is None:
            H, start = complement_basis(u[:, None]), None
        else:
            H, start = V[:, :-1], np.zeros(len(V) - 1)
            start[-1] = 1.0
        B = cs.B @ H
        if B.shape[1] > 1:
            # Y H, in place: each block of rows of Y is read whole before its
            # first m - 1 columns are overwritten
            Y = cs.Y
            rows = block_rows(Y.shape[1])
            for j in range(0, Y.shape[0], rows):
                Yb = Y[j:j + rows]
                Yb[:, :-1] = (H.T @ Yb.T).T
            cs = _Complement.of(B, Y[:, :-1])

    components.append(fix_sign(B[:, 0]))
    diags.append(ComponentDiagnostics.direct("null_space"))
    return _result(np.column_stack(components), apriori.values, scale, diags)


def standard_pca(X, center: bool = False) -> PCAResult:
    """Baseline: eigendecomposition of the (optionally centered) scatter /n."""
    X, scale, pairs = _scatter_evd(X, center)
    diags = [ComponentDiagnostics.direct("evd") for _ in range(X.shape[1])]
    return _result(pairs.vectors, pairs.values, scale, diags)
