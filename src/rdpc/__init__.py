"""Rate-distortion/perception/classification tradeoffs for binary and
scalar Gaussian sources: closed forms, brute-force oracles, achievability
witnesses, a linear-denoising toy model, and pinned-distortion frontiers.

``import rdpc`` loads the closed-form layer only (``closed_form`` and the
modules below it). The oracle, the restoration model, the pinned-distortion
solver and the verify suites load on first use of one of their names
(PEP 562), and each name is then bound into the package, so later lookups
are plain attribute reads.
"""

from importlib import import_module

# each public name's home module; the ones in _LAZY load on first use
_NAMES = {
    "closed_form": (
        "g_function", "rdc_binary", "rdc_binary_witness", "rdc_gaussian",
        "rdc_gaussian_region", "rpc_binary", "rpc_binary_witness", "rpc_gaussian",
        "rpc_gaussian_witness",
    ),
    "entropy": (
        "binary_convolution", "binary_entropy", "binary_entropy_inv",
        "gaussian_diff_entropy", "gaussian_kl", "std_normal_cdf",
    ),
    "errors": (
        "DegenerateSourceError", "DomainError", "NoCrossingError",
        "WitnessUnavailableError",
    ),
    "oracle": ("MglCheck", "binary_min_rate", "gaussian_min_rate", "mrs_gerber_check"),
    "restoration": (
        "DenoiseCurvePoint", "FrontierPoint", "RestorationModel", "bayes_threshold_clean",
        "default_model", "error_rate_of_gain", "error_rate_reoptimized", "frontier",
        "kl_of_gain", "kl_of_gains", "monte_carlo_mse", "monte_carlo_mses", "mse_of_gain",
        "scaled_mixture", "sweep",
    ),
    "results": (
        "BinaryChannel", "ChannelStats", "GaussianReconstruction", "OracleResult", "Region",
        "TradeoffPoint", "Unit",
    ),
    "rpc_given_d": (
        "PCFrontierPoint", "ScanPoint", "eval_at", "pc_frontier_given_rd", "rate_given_pcd",
    ),
    "sources": (
        "BinaryPairSource", "GaussianMixture2", "GaussianPairSource", "binary_channel_stats",
        "gaussian_recon_stats",
    ),
    "verify": ("SUITE_NAMES", "GapProbe", "SuiteResult", "VerifyReport", "run_suites"),
}
_LAZY = ("oracle", "restoration", "rpc_given_d", "verify")
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"

for _module in [m for m in _NAMES if m not in _LAZY]:
    _loaded = import_module(f"{__name__}.{_module}")
    globals().update((name, getattr(_loaded, name)) for name in _NAMES[_module])
del _module, _loaded


def __getattr__(name: str) -> object:
    """A lazy public name, or a submodule, imported on first access."""
    home = _HOME.get(name)
    if home is None and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home or name}")
    if home is None:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
