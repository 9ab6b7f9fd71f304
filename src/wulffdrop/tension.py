"""Anisotropic surface tensions of the form f(x) = phi(h(x'), x_N).

A tension is specified by a convex, positively 1-homogeneous weight
``phi(s, t)`` on the half plane s >= 0 together with a convex, positively
1-homogeneous slice norm ``h`` on R^(N-1).  The pair determines an
axially-symmetric Wulff shape whose horizontal sections are dilates of the
slice Wulff body of ``h``.

Built-in phi families
---------------------
Every phi family is a scaled p-norm, written once in :class:`ScaledPNorm`:

    phi(a, b) = |(a, tau b)|_p = (|a|^p + tau^p |b|^p)^(1/p),

``euclid``      p = 2, tau = 1                      (isotropic)
``pnorm``       finite p >= 1, tau = 1 (p = 1 is the degenerate Manhattan
                weight, inadmissible by design)
``weighted``    p = 2, tau^p = c for finite c > 0

With phi = phi(s, t) and q = p / (p - 1) the closed forms are

    d1 = sign(s) |s|^(p-1) phi^(1-p),   d2 = tau^p sign(t) |t|^(p-1) phi^(1-p),
    kappa = (p-1) tau^p |s t|^(p-2) phi^(1-2p),

where the Hessian of the 1-homogeneous phi is kappa [[t^2, -s t], [-s t, s^2]]
(d11 = t^2 kappa), and the slope inverses the ODE solver needs,
``d1_inverse(w, t)`` = tau t (u / (1 - u))^(1/p) with u = w^q (the s >= 0
with d1phi(s, t) = w < 1) and ``d2_inverse(v, t)`` =
tau t ((v / tau)^(-q) - 1)^(1/p) (the s > 0 with d2phi(s, t) = v in
(0, tau)); p = 2 takes phi and both inverses in np.sqrt form.  Each
inverse is one formula for floats and arrays.  p = 1 has d1 = 1,
d2 = tau sign(t), kappa = 0 and no slope inverse (``NoBracket``).
tau = phi(0, 1), and the Wulff shape is the unit ball of |(x, z / tau)|_q,
so its sections are alpha(t) K_h with alpha(t) = (1 - |t / tau|^q)^(1/q)
(``polar_exponent`` is q; see ``wulff.alpha_table``).

Built-in h families
-------------------
``lp``          l_p norm, 1 <= p <= inf
``euclid``      alias for lp with p = 2
``l1reg``       smoothed l_1: sum_i sqrt(x_i^2 + eps^2 |x|_2^2), finite
                eps >= 0 with a finite eps^2

All evaluation functions accept scalars or numpy arrays and broadcast.  A
parameter outside its range, or a slice norm with no Wulff polygon (see
``wulff.build_wulff_body``), raises :class:`InvalidTension` when built: the
CLI exits 2.  Closed forms that overflow in floating point inside the
ranges (pnorm p near 1 or large, weighted c near 1e300) end as
solver errors instead: the CLI exits 3.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePoint, InvalidTension, NoBracket


# ---------------------------------------------------------------------------
# phi families
# ---------------------------------------------------------------------------

class ScaledPNorm:
    """The closed forms of the module docstring, shared by every phi family.

    A family supplies p and tau^p (the weight c of ``weighted``, kept exact)
    through ``_norm()`` and names its parameter range in ``_needs``.  They
    are checked once, when the family is built, and kept with tau and q.
    """

    def __post_init__(self):
        p, tau_p = self._norm()
        if not (1.0 <= p < math.inf and 0.0 < tau_p < math.inf):
            raise InvalidTension(f"{self.family} needs {self._needs}, got {self}")
        self.__dict__.update(exponent=p, tau_p=tau_p, tau=tau_p ** (1.0 / p),
                             polar_exponent=math.inf if p == 1.0 else p / (p - 1.0))

    def value(self, s, t):
        p = self.exponent
        if p == 2.0:
            return np.sqrt(s * s + self.tau_p * t * t)
        return (np.abs(s) ** p + self.tau_p * np.abs(t) ** p) ** (1.0 / p)

    def d1(self, s, t):
        p = self.exponent
        if p == 1.0:
            # Right derivative on the natural domain s >= 0.
            return np.ones(np.broadcast(s, t).shape)
        return np.sign(s) * np.abs(s) ** (p - 1.0) * self.value(s, t) ** (1.0 - p)

    def d2(self, s, t):
        # p = 1 gives tau sign(t): both powers are 0.
        p = self.exponent
        return (self.tau_p * np.sign(t) * np.abs(t) ** (p - 1.0)
                * self.value(s, t) ** (1.0 - p))

    def kappa(self, s, t):
        p = self.exponent
        if p == 1.0:
            return np.zeros(np.broadcast(s, t).shape)
        # Each power of |s| and |t| is taken on its ratio to phi, so no
        # factor overflows where kappa itself is finite (p = 60 and up).
        phi = self.value(s, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return ((p - 1.0) * self.tau_p * (np.abs(s) / phi) ** (p - 2.0)
                    * (np.abs(t) / phi) ** (p - 2.0) * phi ** -3.0)

    def _q(self):
        if self.exponent == 1.0:
            raise NoBracket(f"{self.family} with p = 1 has constant partials "
                            "d1phi = 1 and d2phi = tau sign(t): no slope inverse")
        return self.polar_exponent

    def d1_inverse(self, w, t):
        if self.exponent == 2.0:
            return self.tau * t * w / np.sqrt(1.0 - w * w)
        u = w ** self._q()
        return self.tau * t * (u / (1.0 - u)) ** (1.0 / self.exponent)

    def d2_inverse(self, v, t):
        x = v / self.tau
        if self.exponent == 2.0:
            return self.tau * t * np.sqrt(1.0 - x * x) / x
        return self.tau * t * (x ** -self._q() - 1.0) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class EuclidPhi(ScaledPNorm):
    """phi(a, b) = sqrt(a^2 + b^2): p = 2, tau = 1."""

    family: str = "euclid"

    def _norm(self):
        return 2.0, 1.0


@dataclass(frozen=True)
class PNormPhi(ScaledPNorm):
    """phi(a, b) = (|a|^p + |b|^p)^(1/p): tau = 1."""

    p: float
    family: str = "pnorm"
    _needs = "finite p >= 1"

    def _norm(self):
        return self.p, 1.0


@dataclass(frozen=True)
class WeightedPhi(ScaledPNorm):
    """phi(a, b) = sqrt(a^2 + c b^2): p = 2, tau = sqrt(c)."""

    c: float
    family: str = "weighted"
    _needs = "finite c > 0"

    def _norm(self):
        return 2.0, self.c


# ---------------------------------------------------------------------------
# h families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpSliceNorm:
    """l_p norm on the slice."""

    p: float
    family: str = "lp"

    def __post_init__(self):
        if not self.p >= 1.0:
            raise InvalidTension(f"lp slice norm needs p >= 1, got p={self.p}")

    def value(self, x):
        a = np.abs(np.asarray(x, dtype=float))
        if math.isinf(self.p):
            return np.max(a, axis=-1)
        with np.errstate(over="ignore"):
            total = (a ** self.p).sum(axis=-1)
        out = total ** (1.0 / self.p)
        bad = (total < np.finfo(float).tiny) | (total == math.inf)
        if np.any(bad):
            # For large p, sum |x|^p is 0, subnormal or inf: such rows are max
            # |x| times the p-norm of x / max |x|, whose entries are at most 1.
            big = np.max(a, axis=-1)
            bad &= (big > 0.0) & (big < math.inf)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                scaled = big * ((a / big[..., None]) ** self.p).sum(axis=-1) ** (1.0 / self.p)
            out = np.where(bad, scaled, out)
        return out


@dataclass(frozen=True)
class L1RegSliceNorm:
    """Smoothed l_1 norm: sum_i sqrt(x_i^2 + eps^2 |x|_2^2).

    Convex and 1-homogeneous (each term is the Euclidean norm of a linear
    image of x); smooth away from the origin.
    """

    eps: float = 0.05
    family: str = "l1reg"

    def __post_init__(self):
        # eps^2 enters value(); it must not overflow.
        if not (self.eps >= 0.0 and self.eps * self.eps < math.inf):
            raise InvalidTension("l1reg slice norm needs finite eps >= 0 with a "
                                 f"finite eps^2, got eps={self.eps}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        n2sq = (x * x).sum(axis=-1, keepdims=True)
        return np.sqrt(x * x + self.eps**2 * n2sq).sum(axis=-1)


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

    # Cached: every energy evaluation checks omega against it.
    @cached_property
    def f_eN(self) -> float:
        """f(e_N) = phi(0, 1), also f(-e_N): every phi family is even in b."""
        return float(self.phi.value(0.0, 1.0))

    @property
    def omega_range(self) -> tuple[float, float]:
        return (-self.f_eN, self.f_eN)

    @property
    def tension_id(self) -> str:
        hp = getattr(self.h, "p", getattr(self.h, "eps", ""))
        pp = getattr(self.phi, "p", getattr(self.phi, "c", ""))
        return f"N{self.dim}-{self.phi.family}{pp}-{self.h.family}{hp}"


def tension_from_config(cfg: dict) -> SurfaceTension:
    """Build a tension from its JSON document (see README for the schema).

    Raises :class:`InvalidTension` for a missing key, a non-integral N, an
    unknown family, a parameter outside its family's range, or a derivative
    mode other than "closed" (the only one; older documents still name it).
    """
    try:
        if not float(cfg["N"]).is_integer():
            raise InvalidTension(f"N must be an integer, got {cfg['N']!r}")
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

    ``name`` is one of "euclid", "pnorm", "weighted", and the remaining
    keywords are its parameters; the slice norm defaults to l_2 and can be
    overridden with h_family/h_p/h_eps keywords.  The tension is built from
    the matching document by :func:`tension_from_config`, so anything it
    rejects raises :class:`InvalidTension` here too.
    """
    h = {"family": kwargs.pop("h_family", "lp")}
    if h["family"] in ("lp", "euclid"):
        h["p"] = kwargs.pop("h_p", 2.0)
    elif h["family"] == "l1reg":
        h["eps"] = kwargs.pop("h_eps", 0.05)
    return tension_from_config({"N": dim, "phi": {"family": name, **kwargs}, "h": h})


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def phi_partials(tension: SurfaceTension, s, t):
    """Return (d1 phi, d2 phi, d11 phi) at (s, t), s >= 0, (s, t) != (0, 0)."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any((s_arr == 0.0) & (t_arr == 0.0)):
        raise DegeneratePoint("phi partials are undefined at (0, 0)")
    phi = tension.phi
    d1 = phi.d1(s_arr, t_arr)
    d2 = phi.d2(s_arr, t_arr)
    # kappa is infinite at t = 0 for p < 2; d11 = t^2 kappa tends to 0 there.
    with np.errstate(invalid="ignore"):
        d11 = np.where(t_arr == 0.0, 0.0, t_arr * t_arr * phi.kappa(s_arr, t_arr))
    if np.isscalar(s) and np.isscalar(t):
        return float(d1), float(d2), float(d11)
    return d1, d2, d11


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility checks for a tension."""

    d1phi_at_poles: tuple[float, float]
    # kappa(0, +-1): the curvature of s -> phi(s, +-1) at the poles.  It is 0
    # for p > 2, where the ODE admits a flat facet, and inf for p < 2.
    pole_kappa: tuple[float, float]
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
            # (delta, b), the tilted (delta, b + sign(b) delta), and the pole.
            s = np.array([delta, delta, 0.0])
            t = np.array([b, b + np.sign(b) * delta, b])
            d1, d2 = phi.d1(s, t), phi.d2(s, t)
            gaps.append(max(abs(d1[0] - d1[2]), abs(d2[0] - d2[2]), abs(d1[1] - d1[2])))
        if not (gaps[1] <= 0.95 * gaps[0] + 100.0 * tol):
            smooth = False

    # Curvature d11 = t^2 kappa = kappa of s -> phi(s, +-1), sampled over s > 0.
    # kappa is homogeneous of degree -3, so a sample beyond s = 1 is taken at
    # (s, +-1) / s, where |s t|^(p-2) cannot overflow for large p.  A NaN
    # sample stays NaN in the minimum and fails the verdict.
    s_grid = np.logspace(-2, 1, 40)
    scale = np.maximum(s_grid, 1.0)
    curv_min = float(np.min([phi.kappa(s_grid / scale, b / scale) / scale**3
                             for b in (1.0, -1.0)]))

    admissible = (
        abs(d1_poles[0]) <= tol
        and abs(d1_poles[1]) <= tol
        and curv_min > 0.0
        and smooth
    )
    return AdmissibilityReport(
        d1phi_at_poles=d1_poles,
        # kappa evaluates its closed form under np.errstate: 0 ** (p - 2)
        # is a silent inf for p < 2.
        pole_kappa=(float(phi.kappa(0.0, 1.0)), float(phi.kappa(0.0, -1.0))),
        smooth_near_poles=smooth,
        strict_convexity_samples=curv_min,
        omega_range=tension.omega_range,
        admissible=admissible,
        tol=tol,
    )
