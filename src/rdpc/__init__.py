"""Rate-distortion/perception/classification tradeoffs for binary and
scalar Gaussian sources: closed forms, brute-force oracles, achievability
witnesses, a linear-denoising toy model, and pinned-distortion frontiers.
"""

from .closed_form import (
    g_function,
    rdc_binary,
    rdc_binary_witness,
    rdc_gaussian,
    rdc_gaussian_region,
    rpc_binary,
    rpc_binary_witness,
    rpc_gaussian,
    rpc_gaussian_witness,
)
from .entropy import (
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
    gaussian_diff_entropy,
    gaussian_kl,
    numeric_kl,
    std_normal_cdf,
)
from .errors import (
    DegenerateSourceError,
    DomainError,
    IntegrationError,
    NoCrossingError,
    WitnessUnavailableError,
)
from .oracle import (
    MglCheck,
    binary_channel_stats,
    binary_min_rate,
    gaussian_min_rate,
    gaussian_recon_stats,
    mrs_gerber_check,
)
from .restoration import (
    DenoiseCurvePoint,
    FrontierPoint,
    RestorationModel,
    bayes_threshold_clean,
    default_model,
    error_rate_of_gain,
    error_rate_reoptimized,
    frontier,
    kl_of_gain,
    kl_of_gains,
    monte_carlo_mse,
    monte_carlo_mses,
    mse_of_gain,
    scaled_mixture,
    sweep,
)
from .results import (
    BinaryChannel,
    ChannelStats,
    GaussianReconstruction,
    OracleResult,
    Region,
    TradeoffPoint,
    Unit,
)
from .rpc_given_d import (
    PCFrontierPoint,
    ScanPoint,
    eval_at,
    pc_frontier_given_rd,
    rate_given_pcd,
)
from .sources import BinaryPairSource, GaussianMixture2, GaussianPairSource
from .verify import (
    SUITE_NAMES,
    GapProbe,
    SuiteResult,
    VerifyReport,
    run_suites,
)

__version__ = "0.1.0"
