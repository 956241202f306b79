"""Graph topology inference from vertex-indexed signal observations.

Submodules: :mod:`glkit.graphcore` (shift operators, GFT, filters),
:mod:`glkit.solvers` (optimization kernels), :mod:`glkit.simulate`
(seeded synthetic data), :mod:`glkit.statnet` (correlation / precision
learners), :mod:`glkit.smoothlearn` (smoothness-prior learners),
:mod:`glkit.spectralid` (spectral-template and filter identification),
:mod:`glkit.netdyn` (directed and dynamic models), :mod:`glkit.metrics`
and :mod:`glkit.serialize` (evaluation and file formats), with the
``glk`` command line in :mod:`glkit.cli`.
"""

from . import (
    errors,
    graphcore,
    metrics,
    netdyn,
    serialize,
    simulate,
    smoothlearn,
    spectralid,
    statnet,
)
from .graphcore import (
    FilterSpec,
    ShiftKind,
    ShiftOperator,
    SignalSet,
    SpectralBasis,
    apply_filter,
    bandlimit_reconstruct,
    build_shift,
    eigendecompose,
    filter_freq_response,
    filter_matrix,
    gft,
    graph_psd,
    igft,
    laplacian_from_weights,
    stationarity_score,
    total_variation,
)
from .metrics import EvalReport, edge_prf, evaluate, scale_aligned_error, topk_recovery_curve
from .netdyn import CascadeData, GraphTrajectory, dynamic_sem_track, sem_fit, svarm_fit
from .simulate import (
    gen_diffusion,
    gen_er_digraph,
    gen_er_graph,
    gen_sem,
    gen_smooth,
    sample_gmrf,
)
from .smoothlearn import (
    DistanceMatrix,
    distance_matrix,
    dong_learn,
    edge_select,
    edge_select_noisy,
    kalofolias_learn,
)
from .solvers import (
    DegreeTerm,
    ShiftConstraintSet,
    SolveTrace,
    SolverConfig,
    lasso_cd,
    primal_dual_graph,
)
from .spectralid import (
    FilterEstimate,
    estimate_eigenbasis,
    infer_shift,
    infer_shift_from_signals,
    network_deconvolve,
    psd_filter_ls,
    psd_filter_recover,
    sym_filter_select,
)
from .statnet import (
    TestTable,
    auto_lambda,
    correlation_network,
    graphical_lasso,
    laplacian_gmrf,
    neighborhood_lasso,
    partial_correlation_network,
    sample_covariance,
)

__version__ = "0.1.0"
