"""Graph moments and graph cumulants: hierarchical network statistics
with exact rational arithmetic."""

__version__ = "0.1.0"

from .graphs import Graph, GraphDataError, make_graph, parse_graph
from .counting import OrderCapError, count_connected, full_counts
from .moments import MomentVector, moments
from .cumulants import (clustering_coefficients, cumulants_to_moments,
                        moments_to_cumulants, scale_cumulants, signed_root)
from .unbiased import (UnbiasingConfig, bootstrap_variance,
                       partial_unbiased_moments, unbiased_cumulants,
                       variance_kappa1, z_test)
from .ergm import (InfeasibleTargetError, SizeCapError,
                   degeneracy_diagnostics, enumerate_classes,
                   ergm_distribution, fit_ergm)
from .localstats import edge_local_cumulants, node_local_cumulants
from .graphsum import (GraphDistribution, distribution_cumulants,
                       sum_distributions)
from .editgraph import build_edit_graph, laplacian_spectrum
from .models import bipartite_geometric, er, shuffle, ssbm
