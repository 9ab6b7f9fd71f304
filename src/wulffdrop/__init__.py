"""Equilibrium shapes of anisotropic sessile drops under gravity.

The package computes, verifies and cross-validates minimizers of the drop
energy (anisotropic surface tension + contact energy + gravity) for
symmetrizable tensions f(x) = phi(h(x'), x_N):

- :mod:`wulffdrop.tension`    tension families, admissibility
- :mod:`wulffdrop.wulff`      slice Wulff bodies and the vertical profile
- :mod:`wulffdrop.sets`       discrete sliced sets, energy, symmetrization
- :mod:`wulffdrop.reduced`    radial reduction and the direct minimizer
- :mod:`wulffdrop.competitor` truncated-Wulff repair of non-convex profiles
- :mod:`wulffdrop.odesolve`   capillary ODE shooting and uniqueness checks
- :mod:`wulffdrop.cli`        command-line interface
"""

from .errors import WulffDropError
from .reduced import (
    EnergyBreakdown,
    Profile,
    el_residual,
    lambda_estimate,
    minimize_direct,
    reduced_energy,
    reduced_volume,
    young_residual,
)
from .sets import (
    SlicedSet,
    barycenter_path,
    energy,
    jensen_gap,
    random_sliced_set,
    sliced_set,
    symmetrize,
    volume,
)
from .competitor import (
    CompetitorParams,
    apply_competitor,
    cap_profile,
    compare_surface_energy,
    find_nonconvexity,
    repair_profile,
    solve_params,
)
from .odesolve import (
    ShootingSolution,
    Trajectory,
    V_of,
    dV_dv0,
    integrate_v,
    reconstruct_profile,
    s_star,
    shoot,
)
from .tension import (
    AdmissibilityReport,
    SurfaceTension,
    check_admissible,
    eval_f,
    make_tension,
    phi_partials,
    tension_from_config,
    tension_to_config,
)
from .wulff import (
    WulffBody,
    build_wulff_body,
    wulff_alpha,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
