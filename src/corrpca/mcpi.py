"""Correntropy power-iteration PCA: ``fit`` and the plain-PCA baseline.

A map of the fit; each contract is stated once, on the name that keeps it.
``_scatter_evd`` checks the input, brings it to unit scale and
eigendecomposes its X^T X / n.  ``fit`` walks a chain of nested complements
(``_Complement``), one component per complement: it sizes the component's
kernel (``_kernel_size``) and runs one round of ``_fixed_point``, the
paper's power iteration as a fixed-point map, which stops the component at
the rounding floor.  ``_result`` maps the scale back.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .correntropy import all_underflowed, block_rows, rank_one_kernel, weighted_scatter
from .linalg import as_real, check_positive, complement_basis, fix_sign
# Reference names that bench/tracing.py reads here.
from .reference import build_deflated_operator, woodbury_update


# A component's kernel size, in units of the median residual norm at its
# a-priori vector: the scale of the residuals, where many samples keep weight.
KERNEL_SCALE = 1.2
# The step size at which a round stops, and the outer iterations it may take.
OUTER_TOL = 1e-8
OUTER_MAX_ITER = 200
# float64's machine epsilon: the rounding floor of 2 sigma^2 is EPS max ||y||^2.
EPS = np.finfo(float).eps


class DegenerateInputError(ValueError):
    """Input is not a finite, real, non-empty n x p matrix.  Neither its
    scale (``_scatter_evd``) nor its rank (``_fixed_point``) is a fault,
    so n < p is fitted."""


@dataclass(frozen=True)
class MCPIConfig:
    """A fit's options, frozen and checked on construction (and so on
    ``dataclasses.replace``): ``center`` subtracts the column means, and
    ``sigma0``, when set, is every round's kernel size in the input's units
    (a large one recovers plain PCA)."""

    center: bool = False
    sigma0: float | None = None

    def __post_init__(self) -> None:
        """ValueError unless ``sigma0`` is None or a positive finite real (not
        a bool); ``_scatter_evd`` checks ``center``."""
        if self.sigma0 is not None:
            check_positive("sigma0", self.sigma0)


@dataclass
class ComponentDiagnostics:
    """How one component was found, recorded by ``_fixed_point`` where its
    round ends: its outer steps, its kernel size (NaN when stopped early),
    whether it met ``OUTER_TOL`` within ``OUTER_MAX_ITER`` steps, and
    ``sigma_underflow`` for an early stop."""

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
        # inner_iterations is always 0, since the eigen-step is a direct
        # solve; bench/run.py reads it
        return {**asdict(self), "inner_iterations": 0}


@dataclass
class PCAResult:
    """Ordered components (columns), a-priori eigenvalues, and per-component
    solver diagnostics.  The eigenvalues and each ``final_sigma`` are in the
    input's units, rounded as ``_scatter_evd`` states."""

    components: np.ndarray
    apriori_eigenvalues: np.ndarray
    diagnostics: list[ComponentDiagnostics]


@dataclass(frozen=True)
class _Complement:
    """The samples' coordinates in the complement of k found components:
    an orthonormal p x m ``B`` (m = p - k), the column-major ``Y = X B``, the
    row energies ``e``, their maximum ``e_max`` and the data's rounding floor
    ``floor``, EPS times the first ``e_max`` of the chain, which ``of`` forms
    there and is handed at each later step.  Complements nest, so, as
    He et al. deflate, ``fit`` walks one chain from ``of(I, X)``, stepping
    past a component at u to ``of(B H, Y H, floor)``, H an orthonormal basis of u's
    complement.  It writes Y H over the first m - 1 columns of Y, so ``of``
    copies nothing and the complement left behind is dead."""

    B: np.ndarray
    Y: np.ndarray
    e: np.ndarray
    e_max: float
    floor: float

    @classmethod
    def of(cls, B: np.ndarray, Y: np.ndarray, floor: float | None = None) -> "_Complement":
        Y = np.asfortranarray(Y)
        e = np.einsum("ij,ij->i", Y, Y)
        e_max = float(e.max())
        return cls(B=B, Y=Y, e=e, e_max=e_max, floor=EPS * e_max if floor is None else floor)

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Unit vector of the projection of the unit vector v onto the
        complement, in B; the last axis when that norm is at most sqrt(eps),
        where v lies in the found components' span up to rounding: a start
        fixed by the data, not by their rotation."""
        u = self.B.T @ v
        nrm2 = u.dot(u)
        if nrm2 <= EPS:
            u = np.zeros(len(u))
            u[-1] = 1.0
            return u
        return u / math.sqrt(nrm2)  # np.linalg.norm's arithmetic, without its overhead


def _fixed_point(cs: _Complement, sigma: float, u: np.ndarray, start: np.ndarray | None = None):
    """One component's round: outer iterations at kernel size ``sigma``
    from the unit vector ``start``, or from the unit vector ``u`` when None,
    in the coordinates of ``cs``, until the map moves its iterate by at most
    ``OUTER_TOL``, for at most ``OUTER_MAX_ITER`` steps.

    At the floor 2 sigma^2 <= eps e_max the exponent's error reaches about
    1, so the weights are noise; the floor lies far above exponent overflow
    and 2 sigma^2 = 0.  A complement whose e_max is at most the data's
    rounding floor ``cs.floor`` holds only rounding, at any sigma, so no
    sigma0 fits that noise.  In either case the round stops before sigma is
    checked, with the record of a round whose first weights all underflow:
    0 steps, ``sigma_underflow`` and a NaN ``final_sigma``.  Rank deficiency
    is that state, not an error: a component with no variance off its
    a-priori vector stops at the floor and keeps it.  With rank r < p and a
    sized kernel that is the r-th, and every later one stops at the data's
    floor.  The last component is never flagged.

    Step k maps x_k to g_k, the top eigenvector of Y^T diag(w) Y signed
    along x_k, with w = exp(-max(e - t^2, 0) / 2 sigma^2) and t = Y x_k: the
    kernel of each residual y - t x_k.  e - t^2, clamped so that no weight
    exceeds 1, is off by a few ulps of e, and the exponent by about
    eps e / 2 sigma^2.  With f_k = g_k - x_k and df_k = f_k - f_{k-1}, the
    next iterate is, normalised, the first that applies of these Anderson
    mixes (Walker & Ni, SIAM J. Numer. Anal. 2011):

    - depth 2, g_k - g1 (g_k - g_{k-1}) - g2 (g_{k-1} - g_{k-2}), (g1, g2) the
      least-squares fit of f_k by df_k and df_{k-1}, once both exist, when their
      Gram determinant exceeds 1e-2 ||df_k||^2 ||df_{k-1}||^2, g1 < 1, g1 + g2 < 1/2;
    - depth 1, g_k - gamma (g_k - g_{k-1}), gamma = df_k.f_k / df_k.df_k,
      when df_k.df_k is positive and finite and gamma < 1/2: a map scaling f
      by rho along df_k has gamma = rho / (rho - 1), so this is |rho| < 1;
    - g_k itself.

    It returns g_k once ||f_k|| <= ``OUTER_TOL``, so always an eigenvector of
    a weighted scatter.  ``linalg.eigh_vectors`` is looked up on the module
    at every step, so a tracer can wrap the eigen-step by name.  sigma is
    checked (a ValueError before any step) and 2 sigma^2 formed once, and
    one buffer, of t and then the weights, serves every step: each iterate
    has the bits of the checked, allocating calls.  Returns (u, V, the
    round's ``ComponentDiagnostics``), V the last step's m x m eigenvectors,
    ascending, so V[:, -1] = +-u.  When no eigen-step finished, u is ``u``
    itself and V None.  When every weight underflows, u is the last g_k
    that had weights, and the record has ``sigma_underflow`` and a NaN
    kernel size.
    """
    if cs.e_max <= cs.floor or 2.0 * sigma * sigma <= EPS * cs.e_max:
        return u, None, ComponentDiagnostics(math.nan, 0, converged=False, sigma_underflow=True)
    sigma = check_positive("kernel size", sigma)
    two_sigma2 = 2.0 * sigma * sigma
    Y, e = cs.Y, cs.e
    t = np.empty(Y.shape[0])  # t = Y x, then the weights, in place
    x = u if start is None else start
    V = u_prev = f_prev = df_prev = None
    for outer in range(OUTER_MAX_ITER):
        np.dot(Y, x, out=t)
        w = rank_one_kernel(e, t, two_sigma2, out=t)
        if all_underflowed(w):
            return u, V, ComponentDiagnostics(math.nan, outer, converged=False, sigma_underflow=True)
        V = linalg.eigh_vectors(weighted_scatter(Y, w))
        u = V[:, -1]
        if u.dot(x) < 0.0:  # sign ambiguity must not stall convergence
            u = -u
        f = u - x
        if math.sqrt(f.dot(f)) <= OUTER_TOL:  # np.linalg.norm's arithmetic, without its overhead
            return u, V, ComponentDiagnostics(sigma, outer + 1, converged=True)
        x = u
        if f_prev is not None:
            df = f - f_prev
            du = u - u_prev  # g_k - g_{k-1}
            dd = float(df.dot(df))
            c = float(df.dot(f))
            if df_prev is not None:
                # least squares over both differences, [dd a; a bb] (g1, g2) = (c, c_prev)
                # by Cramer's rule; bb and du_prev are the last step's dd and du
                a = float(df.dot(df_prev))
                det = dd * bb - a * a
                if det > 1e-2 * dd * bb:
                    c_prev = float(df_prev.dot(f))
                    g1 = (c * bb - c_prev * a) / det
                    g2 = (dd * c_prev - a * c) / det
                    if g1 < 1.0 and g1 + g2 < 0.5:  # the two-difference model contracts
                        x = u - g1 * du - g2 * du_prev
            if x is u:
                gamma = c / dd if 0.0 < dd < np.inf else np.inf
                if gamma < 0.5:  # the secant model contracts: |rho| < 1
                    x = u - gamma * du
            if x is not u:
                x = x / math.sqrt(x.dot(x))
            df_prev, bb, du_prev = df, dd, du
        u_prev, f_prev = u, f
    return u, V, ComponentDiagnostics(sigma, OUTER_MAX_ITER, converged=False)


def _kernel_size(cs: _Complement, u: np.ndarray) -> float:
    """``KERNEL_SCALE`` times the median residual norm sqrt(e - t^2), t = Y u,
    squared residuals at or below the rounding floor eps e_max counted as 0;
    the RMS residual when over half are 0.  That is the scale of the errors
    whose correntropy the fit maximises (He et al., IEEE TIP 2011), where
    many samples keep weight and the outliers do not; per sample, so the
    same for any n drawn from one distribution."""
    r2 = cs.e - (cs.Y @ u) ** 2
    r2[r2 <= EPS * cs.e_max] = 0.0
    # the median without np.median, whose first call imports numpy.ma (the
    # modules a fit loads are pinned in tests/test_api.py).  sqrt is monotone,
    # so the middle values of r are the roots of those of r^2, and the lower
    # one is the largest below the upper one.
    k = len(r2) // 2
    s = np.partition(r2, k)
    lo = s[k] if len(r2) % 2 else s[:k].max()
    median = 0.5 * (math.sqrt(lo) + math.sqrt(s[k]))
    return KERNEL_SCALE * (median if median > 0.0 else math.sqrt(r2.mean()))


def _scatter_evd(X, center: bool):
    """The checked input at unit scale (centred when asked), the exponent e
    that scales it back, and the eigenpairs of its X^T X / n from
    ``linalg.sym_evd``, looked up on the module as ``_fixed_point`` looks up
    ``linalg.eigh_vectors``.

    The unit-scale contract: with 2^(e - 1) <= max |x| < 2^e (max |x| is
    also the finiteness check), X 2^-e is exact and every |x| < 1, so
    X^T X / n cannot overflow and any finite input is fitted; a column far
    below the largest may underflow, and is then a direction without
    variance.  Where X^T X / n is normal, every output is bit for bit that
    of the same arithmetic on the unscaled data.  ``fit`` scales ``sigma0`` by 2^-e (a ValueError past
    float64), and ``_result`` the eigenvalues by 4^e and ``final_sigma`` by
    2^e, rounding as IEEE does, to inf, a subnormal or 0, without warning.
    ValueError unless ``center`` is a bool; DegenerateInputError unless X
    is real (a complex one is not cast), n x p with n, p >= 1 (an empty X
    has no max) and finite.  Any n is fitted: with n < p the data have rank
    below p, a state (``_fixed_point``), not an error."""
    if not isinstance(center, (bool, np.bool_)):
        raise ValueError(f"center must be a bool, got {center!r}")
    X = as_real(X, DegenerateInputError)
    if X.ndim != 2:
        raise DegenerateInputError(f"expected an n x p matrix, got shape {X.shape}")
    n, p = X.shape
    if n < 1 or p < 1:
        raise DegenerateInputError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    top = float(max(X.max(), -X.min()))  # max |x|, without an abs(X) temporary
    if not top < np.inf:
        raise DegenerateInputError("input has non-finite entries (NaN or inf)")
    scale = math.frexp(top)[1]
    # a new column-major array, whatever X's layout: the chain's first Y, and
    # the layout the bits of the centring's column means depend on (numpy
    # sums pairwise only along a contiguous axis, so a C- and a
    # Fortran-ordered input give one centred fit)
    X = np.ldexp(X, -scale, order="F")
    if center:
        X -= X.mean(axis=0)
    return X, scale, linalg.sym_evd(X.T @ X / n)


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
    the input's units, times 4^``scale`` and 2^``scale``: the records in
    ``diags``, which ``fit`` built, are rescaled in place."""
    values = np.array([_ldexp(v, 2 * scale) for v in values.tolist()])
    for d in diags:
        d.final_sigma = _ldexp(d.final_sigma, scale)
    return PCAResult(components=components, apriori_eigenvalues=values, diagnostics=diags)


def fit(X, cfg: MCPIConfig | None = None) -> PCAResult:
    """Full robust decomposition at unit scale (``_scatter_evd``); ValueError
    before any round when ``sigma0`` leaves float64 there.

    Along the chain of ``_Complement`` from B = I, component 1 starts at its
    a-priori vector.  After a component at u, H = V[:, :-1], the other
    eigenvectors of its last eigen-step, so the chain needs no ``eigh``, and
    the next component starts at H's last column, the direction of most
    weighted variance left; its kernel is still sized at its a-priori
    vector, or is ``sigma0``, and ``_fixed_point`` runs its round or stops
    it at the floor.  Without V, H = ``complement_basis(u)`` and the next
    starts at its a-priori vector.  The last component is B once m = 1.
    Each is B u, and ``fix_sign`` signs their p x p matrix once.  Besides
    the input, a fit holds one n x p array, O(n) vectors and one block of
    scaled rows."""
    cfg = cfg if cfg is not None else MCPIConfig()
    X, scale, apriori = _scatter_evd(X, cfg.center)
    sigma0 = None if cfg.sigma0 is None else _ldexp(cfg.sigma0, -scale)
    if sigma0 == math.inf:
        raise ValueError(f"sigma0 = {cfg.sigma0!r} is beyond float64 once the input is scaled by "
                         f"2^{-scale} to max |x| < 1")
    p = X.shape[1]
    B = np.eye(p)
    cs = _Complement.of(B, X)  # X is the chain's Y, overwritten by its steps
    components: list[np.ndarray] = []
    diags: list[ComponentDiagnostics] = []

    start = None
    for i in range(p - 1):
        u = cs.coordinates(apriori.vectors[:, i])
        sigma = _kernel_size(cs, u) if sigma0 is None else sigma0
        u, V, diag = _fixed_point(cs, sigma, u, start)
        components.append(cs.B @ u)
        diags.append(diag)
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
            cs = _Complement.of(B, Y[:, :-1], cs.floor)

    components.append(B[:, 0])
    diags.append(ComponentDiagnostics.direct("null_space"))
    return _result(fix_sign(np.column_stack(components)), apriori.values, scale, diags)


def standard_pca(X, center: bool = False) -> PCAResult:
    """Baseline: eigendecomposition of the (optionally centered) scatter /n,
    at unit scale (``_scatter_evd``)."""
    X, scale, pairs = _scatter_evd(X, center)
    diags = [ComponentDiagnostics.direct("evd") for _ in range(X.shape[1])]
    return _result(pairs.vectors, pairs.values, scale, diags)
