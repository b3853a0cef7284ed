"""Correntropy power-iteration PCA solvers.

Two layers:

* ``mcpi_ith_component`` -- fixed-point loop for one component: freeze the
  sample weights, take the top eigenvector of the weighted scatter
  compressed to the complement of the components already found,
  (I - P) S (I - P), refresh the weights, repeat.  With no components found
  this is the leading component.
* ``fit`` -- full decomposition: an a-priori eigendecomposition of
  X^T X / n seeds each component and its kernel size
  (sigma_i = sqrt(n lambda_i), the i-th singular value of X), the kernel is
  shrunk geometrically (sigma <- eta sigma) for n_decay rounds per
  component, and the last component is read off the null space.

Only the last round's fixed point is the answer; an earlier round only
gives the next one its start vector.  So every round but the last stops
once a step moves the direction by at most sqrt(outer_tol) (1e-4 by
default), and the last round runs to outer_tol (1e-8).  A component is
``converged`` when each round met its own tolerance within outer_max_iter
outer iterations.  If sigma shrinks until every sample weight underflows,
the schedule stops there and the component keeps the direction reached so
far (the last finished round's when the underflow comes on a round's first
step), which is converged only to sqrt(outer_tol); it reports
``sigma_underflow=True`` and ``converged=False``.

The loop runs in the coordinates of the complement of the k found
components, set up once per component and shared by its n_decay rounds: an
orthonormal p x m basis B of that complement (m = p - k; the identity for
the first component, else the trailing columns of a complete QR of the found
components), Y = X B stored column-major, and the row energies
e = ||y||^2.  For v = B u the residual (I - P - v v^T) x is y - (y.u) u, so
with t = Y u each outer iteration is

    w = exp(-max(e - t^2, 0) / 2 sigma^2),   u <- top eigenvector of Y^T diag(w) Y,

an O(n m) weight pass and an m x m eigensolve in place of the p x p residual
operator, its n x p x p product and the (I - P) S (I - P) sandwich.
Computing ||y||^2 - t^2 instead of the residual's norm cancels for rows
nearly parallel to u; its absolute error is a few ulps of ||y||^2, so the
exponent is off by at most about eps ||y||^2 / 2 sigma^2, and the clamp at 0
keeps every weight in (0, 1].  ``correntropy.residual_weights`` remains the
reference for these weights.

The paper removes found components through the shifted operator
K = Q (S - P S - S P) + theta I with Q = (I + P)^-1 kept by rank-one
Woodbury updates.  For the orthogonal projector P that ``fit`` builds,
Q = I - P/2 and K acts as (I - P) S on the complement of range(P), so its
intended fixed point is the eigenvector ``fit`` computes directly.
``DeflationState``, ``woodbury_update`` and ``build_deflated_operator`` are
kept as that paper-literal reference.

``standard_pca`` provides the plain eigendecomposition baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correntropy import all_underflowed, rank_one_weights, weighted_scatter
from .linalg import (
    EigenPairs,
    SingularDirectionError,
    fix_sign,
    null_space_vector,
    sym_evd,
)


class SigmaTooSmallError(RuntimeError):
    """All sample weights underflowed; carries the last valid direction."""

    def __init__(self, last_valid: np.ndarray):
        super().__init__("kernel size shrank until every sample weight underflowed")
        self.last_valid = last_valid


class NumericalSingularityError(RuntimeError):
    """Woodbury denominator collapsed; deflation state is corrupted."""


class DegenerateInputError(ValueError):
    """Input matrix is (numerically) rank deficient, too small, or has
    non-finite entries."""


@dataclass
class MCPIConfig:
    """Loop tolerance and the kernel-shrinking schedule.

    ``fit`` runs the last of the ``n_decay`` rounds of a component to
    ``outer_tol`` and every earlier round to sqrt(outer_tol);
    ``mcpi_ith_component`` runs its single kernel size to ``outer_tol``.
    ``sigma0`` overrides the sqrt(n lambda_i) initial kernel size for every
    component when set (used to freeze sigma large and recover plain PCA).
    """

    eta: float = 0.95
    n_decay: int = 65
    outer_tol: float = 1e-8
    outer_max_iter: int = 200
    center: bool = False
    sigma0: float | None = None

    def validate(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must be in (0,1), got {self.eta}")
        if self.n_decay < 1:
            raise ValueError("n_decay must be >= 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.outer_max_iter < 1:
            raise ValueError("outer_max_iter must be >= 1")
        if self.sigma0 is not None and self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive when set")


@dataclass
class DeflationState:
    """Projection P onto found components, its companion Q = (I+P)^-1,
    and the components themselves (the paper's deflation bookkeeping)."""

    P: np.ndarray
    Q: np.ndarray
    components: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def initial(cls, p: int) -> "DeflationState":
        return cls(P=np.zeros((p, p)), Q=np.eye(p), components=[])

    def add(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=float)
        self.Q = woodbury_update(self.Q, v)
        self.P = self.P + np.outer(v, v)
        self.components.append(v)


def woodbury_update(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rank-one inverse update: from (I+P)^-1 to (I + P + v v^T)^-1."""
    Q = np.asarray(Q, dtype=float)
    v = np.asarray(v, dtype=float)
    q = Q @ v
    denom = 1.0 + float(v @ q)
    if denom <= 1e-12:
        raise NumericalSingularityError(f"update denominator {denom:g} <= 1e-12")
    return Q - np.outer(q, q) / denom


def build_deflated_operator(S: np.ndarray, state: DeflationState) -> np.ndarray:
    """K = Q (S - P S - S P), shifted by max |diag K| so the dominant
    eigenvalue in magnitude is the most positive one."""
    S = np.asarray(S, dtype=float)
    K = state.Q @ (S - state.P @ S - S @ state.P)
    theta = float(np.max(np.abs(np.diag(K))))
    return K + theta * np.eye(K.shape[0])


@dataclass
class ComponentDiagnostics:
    """How one component was found.  For an iterated component,
    ``converged`` is true only when no round underflowed and every decay
    round met its own tolerance within ``outer_max_iter`` outer iterations:
    sqrt(outer_tol) for the rounds before the last, ``outer_tol`` for the
    last one."""

    final_sigma: float
    outer_iterations: int
    converged: bool
    sigma_underflow: bool = False
    method: str = "mcpi"

    def as_dict(self) -> dict:
        return {
            "final_sigma": self.final_sigma,
            "outer_iterations": self.outer_iterations,
            # The eigen-step is a direct solve, so there are no inner
            # iterations; the key stays so report readers keep working.
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


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v0 must be a unit vector")
    return v


@dataclass(frozen=True)
class _Complement:
    """Coordinates of the samples in the complement of the found components.

    ``B`` is an orthonormal p x m basis of that complement (m = p - k),
    ``Y = X B`` is stored column-major for the weighted scatter, and ``e``
    holds the row energies ||y_k||^2.
    """

    B: np.ndarray
    Y: np.ndarray
    e: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, components) -> "_Complement":
        if components:
            F = np.column_stack(components)
            B = np.linalg.qr(F, mode="complete")[0][:, F.shape[1]:]
        else:
            B = np.eye(X.shape[1])
        Y = np.asfortranarray(X @ B)
        return cls(B=B, Y=Y, e=np.einsum("ij,ij->i", Y, Y))

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Unit vector of the projection of v onto the complement, in B."""
        u = self.B.T @ v
        nrm = np.linalg.norm(u)
        if nrm <= 1e-300:
            raise SingularDirectionError("start vector lies in the span of the found components")
        return u / nrm

    def signed(self, u: np.ndarray) -> np.ndarray:
        """u, negated exactly when ``fix_sign`` would flip B u."""
        v = self.B @ u
        return -u if v[np.argmax(np.abs(v))] < 0.0 else u


def _fixed_point(cs: _Complement, sigma: float, u: np.ndarray, tol: float, max_iter: int):
    """Outer iterations at a fixed kernel size, in complement coordinates,
    until a step moves u by at most ``tol``.

    Returns (u, outer iterations, converged); raises SigmaTooSmallError with
    the last valid direction in the original coordinates.
    """
    converged = False
    outer = 0
    for outer in range(1, max_iter + 1):
        w = rank_one_weights(cs.e, cs.Y @ u, sigma)
        if all_underflowed(w):
            raise SigmaTooSmallError(last_valid=cs.B @ u)
        u_new = np.linalg.eigh(weighted_scatter(cs.Y, w))[1][:, -1]
        if float(u_new @ u) < 0.0:  # sign ambiguity must not stall convergence
            u_new = -u_new
        if np.linalg.norm(u_new - u) <= tol:
            u = u_new
            converged = True
            break
        u = u_new
    return u, outer, converged


def mcpi_ith_component(X, components, sigma, v0, cfg: MCPIConfig):
    """Next robust component, orthogonal to the unit vectors in ``components``.

    Each outer iteration weights the samples by the kernel of their residual
    (I - P - v v^T) x and moves v to the top eigenvector of the weighted
    scatter compressed to the complement of range(P).
    """
    cs = _Complement.of(np.asarray(X, dtype=float), components)
    u0 = cs.coordinates(_check_unit(v0))
    u, outer, converged = _fixed_point(cs, sigma, u0, cfg.outer_tol, cfg.outer_max_iter)
    diag = ComponentDiagnostics(
        final_sigma=float(sigma),
        outer_iterations=outer,
        converged=converged,
    )
    return fix_sign(cs.B @ u), diag


def _shrinking_rounds(X, components, sigma, v, cfg):
    """n_decay rounds of {solve at fixed sigma; sigma <- eta sigma}, sharing
    one complement set-up; rounds before the last stop at sqrt(outer_tol),
    the last at outer_tol."""
    cs = _Complement.of(X, components)
    u = cs.coordinates(v)
    early_tol = np.sqrt(cfg.outer_tol)
    final_sigma = float(sigma)
    outer_total = 0
    converged = True
    underflow = False
    for r in range(cfg.n_decay):
        tol = cfg.outer_tol if r == cfg.n_decay - 1 else early_tol
        try:
            u, outer, round_converged = _fixed_point(cs, sigma, u, tol, cfg.outer_max_iter)
        except SigmaTooSmallError as err:
            v = err.last_valid
            underflow = True
            break
        u = cs.signed(u)
        v = cs.B @ u
        final_sigma = float(sigma)
        outer_total += outer
        converged = converged and round_converged
        sigma *= cfg.eta
    return v, ComponentDiagnostics(
        final_sigma=final_sigma,
        outer_iterations=outer_total,
        converged=converged and not underflow,
        sigma_underflow=underflow,
    )


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("input has non-finite entries (NaN or inf)")


def _scatter(X: np.ndarray) -> np.ndarray:
    """X^T X / n, or DegenerateInputError when it overflows float64."""
    with np.errstate(over="ignore"):
        S = X.T @ X / X.shape[0]
    if not np.all(np.isfinite(S)):
        raise DegenerateInputError(
            f"X^T X overflows float64 (max |x| = {np.max(np.abs(X)):g}); rescale the input"
        )
    return S


def _prepare(X, cfg: MCPIConfig):
    cfg.validate()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DegenerateInputError(f"expected an n x p matrix, got shape {X.shape}")
    n, p = X.shape
    if n < p or p < 1:
        raise DegenerateInputError(f"need n >= p >= 1, got n={n}, p={p}")
    _check_finite(X)
    if cfg.center:
        X = X - X.mean(axis=0)
    apriori = sym_evd(_scatter(X))
    if apriori.values[-1] <= 1e-10 * apriori.values[0]:
        raise DegenerateInputError("input is numerically rank deficient")
    return X, apriori


def fit(X, cfg: MCPIConfig | None = None) -> PCAResult:
    """Full robust decomposition via the kernel-shrinking schedule."""
    cfg = cfg if cfg is not None else MCPIConfig()
    X, apriori = _prepare(X, cfg)
    p = X.shape[1]
    components: list[np.ndarray] = []
    diags: list[ComponentDiagnostics] = []

    n = X.shape[0]
    n_iterated = p - 1 if p > 1 else 1
    for i in range(n_iterated):
        # Initial kernel size: the i-th singular value of X, i.e.
        # sqrt(n * lambda_i) with lambda_i from the scatter/n spectrum.
        # Starting at data norm scale keeps the early rounds in the
        # near-quadratic regime; n_decay shrink steps then land at the
        # per-direction noise scale instead of collapsing below it.
        sigma = cfg.sigma0 if cfg.sigma0 is not None else float(np.sqrt(n * apriori.values[i]))
        v, diag = _shrinking_rounds(X, components, sigma, apriori.vectors[:, i], cfg)
        components.append(v)
        diags.append(diag)

    if p > 1:
        components.append(null_space_vector(np.column_stack(components)))
        diags.append(
            ComponentDiagnostics(
                final_sigma=float("nan"),
                outer_iterations=0,
                converged=True,
                method="null_space",
            )
        )

    return PCAResult(
        components=np.column_stack(components),
        apriori_eigenvalues=apriori.values,
        diagnostics=diags,
    )


def standard_pca(X, center: bool = False) -> PCAResult:
    """Baseline: eigendecomposition of the (optionally centered) scatter /n."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise DegenerateInputError(f"need n >= p, got shape {X.shape}")
    _check_finite(X)
    if center:
        X = X - X.mean(axis=0)
    pairs: EigenPairs = sym_evd(_scatter(X))
    diags = [
        ComponentDiagnostics(
            final_sigma=float("nan"),
            outer_iterations=0,
            converged=True,
            method="evd",
        )
        for _ in range(X.shape[1])
    ]
    return PCAResult(
        components=pairs.vectors,
        apriori_eigenvalues=pairs.values,
        diagnostics=diags,
    )
