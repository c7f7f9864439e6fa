"""hyperlat: exact computations on hyperbolic lattices of signature (1, n).

Everything load-bearing is exact: arbitrary-precision integers, with a
rational held as integer numerators over one positive denominator.
Floats appear only in final normalizations, distances, and plot output.
See the README for the CLI surface.
"""

__version__ = "0.1.0"

from .lattice import GramLattice, build_lattice, direct_sum, rank1, standard_lattice
from .model import (BoundaryRay, ConeOrientation, Horoball, HyperboloidPoint,
                    boundary_from_ray, distance, horoball_contains, pick_cone,
                    point_from_ray, to_ball)
from .forms import (IsotropyVerdict, SearchVerdict, enumerate_norm_vectors,
                    hilbert_symbol, primitive_isotropic_vectors,
                    rational_isotropy, root_existence)
from .isometry import (Isometry, eichler_transvection, entropy,
                       fixed_boundary_points, make_isometry, reflection)
from .cones import PolyhedralCone, extreme_rays, polytope_hypothesis_check
from .groups import (FGGroup, chamber_walk, dirichlet_domain,
                     group, limit_points_sample, orbit, tiling_check)
from .criteria import (CriterionReport, convex_cocompact_rank5_family,
                       entropy_report, genus_one_fibration_test, k3_report,
                       lattice_criterion, uniform_lattice_family)

__all__ = [name for name in dir() if not name.startswith("_")]
