"""Anisotropic surface tensions of the form f(x) = phi(h(x'), x_N).

A tension is specified by a convex, positively 1-homogeneous weight
``phi(s, t)`` on the half plane s >= 0 together with a convex, positively
1-homogeneous slice norm ``h`` on R^(N-1).  The pair determines an
axially-symmetric Wulff shape whose horizontal sections are dilates of the
slice Wulff body of ``h``.

Built-in phi families
---------------------
``euclid``      phi(a, b) = sqrt(a^2 + b^2)        (isotropic)
``pnorm``       phi(a, b) = (|a|^p + |b|^p)^(1/p)  (p >= 1; p = 1 is the
                degenerate Manhattan weight, inadmissible by design)
``weighted``    phi(a, b) = sqrt(a^2 + c b^2), c > 0

Built-in h families
-------------------
``lp``          l_p norm, 1 <= p <= inf (closed-form dual l_q)
``euclid``      alias for lp with p = 2
``l1reg``       smoothed l_1: sum_i sqrt(x_i^2 + eps^2 |x|_2^2)

All evaluation functions accept scalars or numpy arrays and broadcast.
Each phi family carries its partials ``d1``, ``d2``, ``d11`` in closed form,
the scalar ``kappa(s, t)`` = d11/t^2 of its Hessian (phi is 1-homogeneous,
so the Hessian is kappa * [[t^2, -s t], [-s t, s^2]], and kappa stays finite
at t = 0), and the two slope inverses the ODE solver needs:
``d1_inverse(w, t)``, the s >= 0 with d1phi(s, t) = w for
0 <= w < phi(1, 0), and ``d2_inverse(v, t)``, the s > 0 with
d2phi(s, t) = v for 0 < v < phi(0, 1).  Each inverse is one formula, so the
same code takes a float and an array.

Each family is phi(a, b) = |(a, tau b)|_p with tau = phi(0, 1) (p = 2,
tau = sqrt(c) for ``weighted``), so its Wulff shape is the unit ball of
|(x, z / tau)|_q.  ``polar_exponent`` states q = p / (p - 1): 2 for
``euclid`` and ``weighted``, inf for ``pnorm`` p = 1.  The Wulff sections
of the full tension are then alpha(t) K_h with
alpha(t) = (1 - |t / tau|^q)^(1/q) (see ``wulff.alpha_table``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DegeneratePoint, InvalidTension, NoBracket, ZeroDirection

# Number of unit directions sampled when a slice norm registers no closed-form
# dual.  Error is O(1/M^2) in 2-D after the local bounded refinement.
M_DUAL = 4096


# ---------------------------------------------------------------------------
# phi families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EuclidPhi:
    """phi(a, b) = sqrt(a^2 + b^2)."""

    family: str = "euclid"

    def value(self, s, t):
        return np.hypot(s, t)

    def d1(self, s, t):
        return s / np.hypot(s, t)

    def d2(self, s, t):
        return t / np.hypot(s, t)

    def d11(self, s, t):
        rho = np.hypot(s, t)
        return t * t / rho**3

    def kappa(self, s, t):
        return 1.0 / np.hypot(s, t) ** 3

    polar_exponent = 2.0

    def d1_inverse(self, w, t):
        return t * w / np.sqrt(1.0 - w * w)

    def d2_inverse(self, v, t):
        return t * np.sqrt(1.0 - v * v) / v


@dataclass(frozen=True)
class PNormPhi:
    """phi(a, b) = (|a|^p + |b|^p)^(1/p), p >= 1."""

    p: float
    family: str = "pnorm"

    def __post_init__(self):
        if not self.p >= 1.0:
            raise InvalidTension(f"pnorm needs p >= 1, got p={self.p}")

    def value(self, s, t):
        p = self.p
        return (np.abs(s) ** p + np.abs(t) ** p) ** (1.0 / p)

    def d1(self, s, t):
        p = self.p
        if p == 1.0:
            # Right derivative on the natural domain s >= 0.
            return np.ones_like(np.asarray(s, dtype=float) + np.asarray(t, dtype=float) * 0.0)
        rho = self.value(s, t)
        return np.sign(s) * np.abs(s) ** (p - 1.0) * rho ** (1.0 - p)

    def d2(self, s, t):
        p = self.p
        if p == 1.0:
            return np.sign(t) * np.ones_like(np.asarray(s, dtype=float))
        rho = self.value(s, t)
        return np.sign(t) * np.abs(t) ** (p - 1.0) * rho ** (1.0 - p)

    def d11(self, s, t):
        p = self.p
        if p == 1.0:
            return np.zeros_like(np.asarray(s, dtype=float))
        rho = self.value(s, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (p - 1.0) * np.abs(s) ** (p - 2.0) * np.abs(t) ** p * rho ** (1.0 - 2.0 * p)
        # |s|^(p-2) at s=0: 0 for p>2, finite for p=2, +inf for p<2.
        return out

    def kappa(self, s, t):
        p = self.p
        if p == 1.0:
            return np.zeros_like(np.asarray(s, dtype=float) + np.asarray(t, dtype=float) * 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (p - 1.0) * np.abs(s * t) ** (p - 2.0) * self.value(s, t) ** (1.0 - 2.0 * p)

    @property
    def polar_exponent(self) -> float:
        """q = p / (p - 1); inf for p = 1, whose Wulff shape is a box."""
        return math.inf if self.p == 1.0 else self._conjugate()

    def _conjugate(self) -> float:
        """q = p / (p - 1); p = 1 has constant partials and no inverses."""
        if self.p == 1.0:
            raise NoBracket("pnorm with p = 1 has constant partials "
                            "d1phi = 1 and d2phi = sign(t): no slope inverse")
        return self.p / (self.p - 1.0)

    def d1_inverse(self, w, t):
        u = w ** self._conjugate()
        return t * (u / (1.0 - u)) ** (1.0 / self.p)

    def d2_inverse(self, v, t):
        return t * (v ** -self._conjugate() - 1.0) ** (1.0 / self.p)


@dataclass(frozen=True)
class WeightedPhi:
    """phi(a, b) = sqrt(a^2 + c b^2), c > 0."""

    c: float
    family: str = "weighted"

    def __post_init__(self):
        if not self.c > 0.0:
            raise InvalidTension(f"weighted needs c > 0, got c={self.c}")

    def value(self, s, t):
        return np.sqrt(s * s + self.c * t * t)

    def d1(self, s, t):
        return s / self.value(s, t)

    def d2(self, s, t):
        return self.c * t / self.value(s, t)

    def d11(self, s, t):
        rho = self.value(s, t)
        return self.c * t * t / rho**3

    def kappa(self, s, t):
        return self.c / self.value(s, t) ** 3

    polar_exponent = 2.0

    def d1_inverse(self, w, t):
        return math.sqrt(self.c) * t * w / np.sqrt(1.0 - w * w)

    def d2_inverse(self, v, t):
        c = self.c
        return t * np.sqrt(c * c / (v * v) - c)


# ---------------------------------------------------------------------------
# h families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpSliceNorm:
    """l_p norm on the slice, with closed-form dual l_q, 1/p + 1/q = 1."""

    p: float
    family: str = "lp"

    def __post_init__(self):
        if not self.p >= 1.0:
            raise InvalidTension(f"lp slice norm needs p >= 1, got p={self.p}")

    @property
    def q(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if math.isinf(self.p):
            return np.max(np.abs(x), axis=-1)
        return (np.abs(x) ** self.p).sum(axis=-1) ** (1.0 / self.p)

    def dual_value(self, x):
        x = np.asarray(x, dtype=float)
        q = self.q
        if math.isinf(q):
            return np.max(np.abs(x), axis=-1)
        return (np.abs(x) ** q).sum(axis=-1) ** (1.0 / q)

    def dual_grad(self, x):
        x = np.asarray(x, dtype=float)
        q = self.q
        if math.isinf(q):
            # Gradient of the max norm: unit coordinate at the max entry.
            g = np.zeros_like(x)
            j = int(np.argmax(np.abs(x)))
            g[j] = np.sign(x[j])
            return g
        if q == 1.0:
            return np.sign(x)
        nq = self.dual_value(x)
        return np.sign(x) * np.abs(x) ** (q - 1.0) / nq ** (q - 1.0)


@dataclass(frozen=True)
class L1RegSliceNorm:
    """Smoothed l_1 norm: sum_i sqrt(x_i^2 + eps^2 |x|_2^2).

    Convex and 1-homogeneous (each term is the Euclidean norm of a linear
    image of x); smooth away from the origin.  No closed-form dual is
    registered, so the dual is evaluated by direction sampling.
    """

    eps: float = 0.05
    family: str = "l1reg"

    def value(self, x):
        x = np.asarray(x, dtype=float)
        n2sq = (x * x).sum(axis=-1, keepdims=True)
        return np.sqrt(x * x + self.eps**2 * n2sq).sum(axis=-1)

    dual_value = None
    dual_grad = None


_PHI_FAMILIES = {"euclid": EuclidPhi, "pnorm": PNormPhi, "weighted": WeightedPhi}
_H_FAMILIES = {"lp": LpSliceNorm, "euclid": LpSliceNorm, "l1reg": L1RegSliceNorm}


# ---------------------------------------------------------------------------
# SurfaceTension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceTension:
    """An admissible-candidate tension f(x) = phi(h(x'), x_N) in R^dim."""

    dim: int
    phi: object
    h: object

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidTension(f"ambient dimension must be >= 2, got {self.dim}")

    # -- basic evaluations --------------------------------------------------

    @property
    def f_eN(self) -> float:
        """f(e_N) = phi(0, 1); top of the admissible omega interval is f(-e_N)."""
        return float(self.phi.value(0.0, 1.0))

    @property
    def f_neg_eN(self) -> float:
        return float(self.phi.value(0.0, -1.0))

    @property
    def omega_range(self) -> tuple[float, float]:
        return (-self.f_eN, self.f_neg_eN)

    @property
    def tension_id(self) -> str:
        hp = getattr(self.h, "p", getattr(self.h, "eps", ""))
        pp = getattr(self.phi, "p", getattr(self.phi, "c", ""))
        return f"N{self.dim}-{self.phi.family}{pp}-{self.h.family}{hp}"


def tension_from_config(cfg: dict) -> SurfaceTension:
    """Build a tension from its JSON document (see README for the schema).

    Raises :class:`InvalidTension` for a missing key, an unknown family, a
    parameter outside its family's range, or a derivative mode other than
    "closed" (the only one; older documents still name it).
    """
    try:
        n = int(cfg["N"])
        phi_cfg = dict(cfg["phi"])
        h_cfg = dict(cfg["h"])
        phi_family = phi_cfg.pop("family")
        h_family = h_cfg.pop("family")
        if phi_family not in _PHI_FAMILIES:
            raise InvalidTension(f"unknown phi family {phi_family!r}")
        if h_family not in _H_FAMILIES:
            raise InvalidTension(f"unknown h family {h_family!r}")
        phi = _PHI_FAMILIES[phi_family](**phi_cfg)
        if h_family == "euclid":
            h_cfg.setdefault("p", 2.0)
        h = _H_FAMILIES[h_family](**h_cfg)
        if cfg.get("derivative_mode", "closed") != "closed":
            raise InvalidTension("derivative_mode must be \"closed\", got "
                                 f"{cfg['derivative_mode']!r}")
        return SurfaceTension(dim=n, phi=phi, h=h)
    except InvalidTension:
        raise
    except KeyError as exc:
        raise InvalidTension(f"tension document lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidTension(f"malformed tension document: {exc}") from exc


def tension_to_config(tension: SurfaceTension) -> dict:
    return {
        "N": tension.dim,
        "phi": asdict(tension.phi),
        "h": asdict(tension.h),
    }


def make_tension(name: str, dim: int = 3, **kwargs) -> SurfaceTension:
    """Convenience constructor for the built-in combinations.

    ``name`` is one of "euclid", "pnorm", "weighted"; the slice norm defaults
    to l_2 and can be overridden with h_family/h_p/h_eps keywords.
    """
    h_family = kwargs.pop("h_family", "lp")
    h_kwargs = {}
    if h_family in ("lp", "euclid"):
        h_kwargs["p"] = kwargs.pop("h_p", 2.0)
    elif h_family == "l1reg":
        h_kwargs["eps"] = kwargs.pop("h_eps", 0.05)
    phi = _PHI_FAMILIES[name](**kwargs)
    h = _H_FAMILIES[h_family](**h_kwargs)
    return SurfaceTension(dim=dim, phi=phi, h=h)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def eval_f(tension: SurfaceTension, x) -> float:
    """Evaluate f(x) = phi(h(x'), x_N); total and positively 1-homogeneous."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != tension.dim:
        raise ValueError(f"expected vectors in R^{tension.dim}, got shape {x.shape}")
    s = tension.h.value(x[..., :-1])
    out = tension.phi.value(s, x[..., -1])
    return float(out) if out.ndim == 0 else out


def phi_partials(tension: SurfaceTension, s, t):
    """Return (d1 phi, d2 phi, d11 phi) at (s, t), s >= 0, (s, t) != (0, 0)."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any((s_arr == 0.0) & (t_arr == 0.0)):
        raise DegeneratePoint("phi partials are undefined at (0, 0)")
    phi = tension.phi
    d1 = phi.d1(s_arr, t_arr)
    d2 = phi.d2(s_arr, t_arr)
    d11 = phi.d11(s_arr, t_arr)
    if np.isscalar(s) and np.isscalar(t):
        return float(d1), float(d2), float(d11)
    return d1, d2, d11


def _sample_directions(dim_slice: int, m: int) -> np.ndarray:
    if dim_slice == 1:
        return np.array([[1.0], [-1.0]])
    theta = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _dual_by_sampling(tension: SurfaceTension, xp: np.ndarray):
    """Maximize y -> xp . y / h(y) over unit directions; returns (value, y0)."""
    d = tension.dim - 1
    ys = _sample_directions(d, M_DUAL)
    scores = ys @ xp / tension.h.value(ys)
    k = int(np.argmax(scores))
    if d == 1:
        y0 = ys[k]
        return float(scores[k]), y0
    theta0 = 2.0 * math.pi * k / M_DUAL
    dtheta = 2.0 * math.pi / M_DUAL

    def score(theta):
        y = np.array([math.cos(theta), math.sin(theta)])
        return float(xp @ y / tension.h.value(y))

    theta = minimize_scalar(lambda th: -score(th),
                            bounds=(theta0 - dtheta, theta0 + dtheta),
                            method="bounded", options={"xatol": 1e-12}).x
    y0 = np.array([math.cos(theta), math.sin(theta)])
    return score(theta), y0


def h_star(tension: SurfaceTension, xp) -> float:
    """Dual slice norm h_*(x') = sup { x'.y : h(y) = 1 }."""
    xp = np.asarray(xp, dtype=float)
    if np.all(xp == 0.0):
        return 0.0
    if getattr(tension.h, "dual_value", None) is not None:
        return float(tension.h.dual_value(xp))
    value, _ = _dual_by_sampling(tension, xp)
    return value


def h_star_grad(tension: SurfaceTension, xp) -> np.ndarray:
    """Gradient of h_* at x' != 0; satisfies h(grad) = 1 at smooth points."""
    xp = np.asarray(xp, dtype=float)
    if np.all(xp == 0.0):
        raise ZeroDirection("h_* gradient is undefined at the origin")
    if getattr(tension.h, "dual_grad", None) is not None:
        return tension.h.dual_grad(xp)
    _, y0 = _dual_by_sampling(tension, xp)
    return y0 / float(tension.h.value(y0))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility checks for a tension."""

    d1phi_at_poles: tuple[float, float]
    smooth_near_poles: bool
    strict_convexity_samples: float
    omega_range: tuple[float, float]
    admissible: bool
    tol: float


def check_admissible(tension: SurfaceTension, tol: float = 1e-8) -> AdmissibilityReport:
    """Populate an AdmissibilityReport; failures are reported, never raised.

    Strict convexity is probed in the first argument at fixed second argument
    (the form used by the Jensen equality case); a positively 1-homogeneous
    function cannot be strictly convex jointly.
    """
    phi = tension.phi
    d1_poles = (float(phi.d1(0.0, 1.0)), float(phi.d1(0.0, -1.0)))

    # Continuity of the gradient approaching (0, +-1): the gradient mismatch
    # must shrink when the probe scale shrinks.  A slowly vanishing Hoelder
    # modulus (p-norms with p near 1) still counts as continuous; a jump
    # keeps the ratio at 1.
    smooth = True
    for b in (1.0, -1.0):
        gaps = []
        for delta in (1e-3, 1e-4):
            d1, d2, _ = phi_partials(tension, delta, b)
            d1t, d2t, _ = phi_partials(tension, delta, b + np.sign(b) * delta)
            pole_d1, pole_d2, _ = phi_partials(tension, 0.0, b)
            gap = max(abs(d1 - pole_d1), abs(d2 - pole_d2), abs(d1t - pole_d1))
            gaps.append(gap)
        if not (gaps[1] <= 0.95 * gaps[0] + 100.0 * tol):
            smooth = False

    # Curvature of s -> phi(s, b) sampled over s > 0.
    s_grid = np.logspace(-2, 1, 40)
    curv_min = math.inf
    for b in (1.0, -1.0):
        curv = phi.d11(s_grid, b * np.ones_like(s_grid))
        curv_min = min(curv_min, float(np.min(curv)))

    admissible = (
        abs(d1_poles[0]) <= tol
        and abs(d1_poles[1]) <= tol
        and curv_min > 0.0
        and smooth
    )
    return AdmissibilityReport(
        d1phi_at_poles=d1_poles,
        smooth_near_poles=smooth,
        strict_convexity_samples=curv_min,
        omega_range=tension.omega_range,
        admissible=admissible,
        tol=tol,
    )
