"""The exact bits of the scalar closed forms, in every region.

Each case pins ``float.hex`` of the rate and of every witness field (or
every field of each frontier row), so a rewrite of the scalar code that
changes any float operation, or its order, fails here. The cases cover
zero rate, infeasibility, d = 0 (rate +inf), C at the floor and 1e-13 on
either side of it, C at and far above h(S), and P = 0.
"""

import math
import random

import pytest

import rdpc
from rdpc import (
    BinaryChannel,
    BinaryPairSource,
    DomainError,
    GaussianPairSource,
    GaussianReconstruction,
    PCFrontierPoint,
    TradeoffPoint,
)

inf, nan = math.inf, math.nan

SOURCES = {
    "b": BinaryPairSource(0.3, 0.1),
    "b0": BinaryPairSource(0.2, 0.0),
    "bh": BinaryPairSource(0.5, 0.3),
    "bd": BinaryPairSource(0.0, 0.0),
    "g": GaussianPairSource(0.0, 0.0, 1.0, 0.49, 0.63),
    "g2": GaussianPairSource(0.5, -1.0, 2.0, 0.3, -0.5),
    "gi": GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.0),
    "g1": GaussianPairSource(0.0, 0.0, 1.0, 1.0, 1.0),
    "gh": GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.5),
}


def _bits(x):
    """``float.hex`` of every float in a result, fields in order."""
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, TradeoffPoint):
        return (_bits(x.rate), x.region.value, _bits(x.witness))
    if isinstance(x, BinaryChannel):
        return (_bits(x.p_a), _bits(x.p_b))
    if isinstance(x, GaussianReconstruction):
        return (_bits(x.mu_xh), _bits(x.var_xh), _bits(x.cov_xxh))
    if isinstance(x, PCFrontierPoint):
        return (_bits(x.c), _bits(x.min_p), _bits(x.rate), _bits(x.sigma_xh), x.feasible)
    if isinstance(x, list):
        return tuple(_bits(r) for r in x)
    raise TypeError(f"no bits for {x!r}")


# (function, source, arguments after the source, bits of the result), keyed
# by the case's test id, fixed when the case was pinned, so that removing a
# case renames no other
_CASES = {
    "rdc_binary-b-args0-bits0":
        ("rdc_binary", "b", (0.05, 0.9),
         ("0x1.0cbd39700ced1p-1", "distortion_limited",
          ("0x1.f86a314dbf868p-1", "0x1.3e93e93e93e95p-3"))),
    "rdc_binary-b-args1-bits1":
        ("rdc_binary", "b", (0.3, 0.6),
         ("0x1.f929678eecd7fp-2", "classification_limited",
          ("0x1.f7723097c9ba8p-1", "0x1.7170f6524c55ep-3"))),
    "rdc_binary-b-args2-bits2":
        ("rdc_binary", "b", (0.0, 0.6),
         ("0x1.9f5fd8a9063e2p-1", "distortion_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b-args3-bits3":
        ("rdc_binary", "b", (0.1, 0.6),
         ("0x1.f929678eecd7fp-2", "classification_limited",
          ("0x1.f7723097c9ba8p-1", "0x1.7170f6524c55ep-3"))),
    "rdc_binary-b-args4-bits4":
        ("rdc_binary", "b", (0.4, 0.95),
         ("0x0.0p+0", "zero_rate", ("0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_binary-b-args5-bits5":
        ("rdc_binary", "b", (0.2, 0.4),
         ("nan", "infeasible", None)),
    "rdc_binary-b-args6-bits6":
        ("rdc_binary", "b", (0.1, 0.4689955935892812),
         ("0x1.9f5fd8a9063e2p-1", "classification_limited",
          ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b-args7-bits7":
        ("rdc_binary", "b", (0.1, 0.4689955935893812),
         ("0x1.9f5fd8a90241cp-1", "classification_limited",
          ("0x1.fffffffffff8bp-1", "0x1.0a5e00000007cp-43"))),
    "rdc_binary-b-args8-bits8":
        ("rdc_binary", "b", (0.1, 0.46899559358918125),
         ("0x1.9f5fd8a9063e2p-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b-args9-bits9":
        ("rdc_binary", "b", (0.05, 0.8812908992306927),
         ("0x1.0cbd39700ced1p-1", "distortion_limited",
          ("0x1.f86a314dbf868p-1", "0x1.3e93e93e93e95p-3"))),
    "rdc_binary-b-args10-bits10":
        ("rdc_binary", "b", (0.2, 1.0),
         ("0x1.6dfa4bee84a80p-4", "distortion_limited",
          ("0x1.f49f49f49f4a0p-1", "0x1.7777777777779p-1"))),
    "rdc_binary-b-args11-bits11":
        ("rdc_binary", "b", (0.2, 2.0),
         ("0x1.6dfa4bee84a80p-4", "distortion_limited",
          ("0x1.f49f49f49f4a0p-1", "0x1.7777777777779p-1"))),
    "rdc_binary-b-args12-bits12":
        ("rdc_binary", "b", (0.5, 0.7),
         ("0x1.39d827f6ac81ep-2", "classification_limited",
          ("0x1.f26cca0f02803p-1", "0x1.77c1062d8d5fbp-2"))),
    "rdc_binary-b-args13-bits13":
        ("rdc_binary", "b", (0.0, 0.4689955935892812),
         ("0x1.9f5fd8a9063e2p-1", "classification_limited",
          ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b0-args14-bits14":
        ("rdc_binary", "b0", (0.1, 0.0),
         ("0x1.71a08f2b35a92p-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b0-args15-bits15":
        ("rdc_binary", "b0", (0.1, -5e-13),
         ("0x1.71a08f2b35a92p-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rdc_binary-b0-args16-bits16":
        ("rdc_binary", "b0", (0.05, 0.3),
         ("0x1.bdfbdfe478b02p-2", "distortion_limited",
          ("0x1.faaaaaaaaaaa9p-1", "0x1.aaaaaaaaaaaaap-3"))),
    "rdc_binary-b0-args17-bits17":
        ("rdc_binary", "b0", (0.2, 0.5),
         ("0x1.c6823cacd6a48p-3", "classification_limited",
          ("0x1.f7e07600fd4bfp-1", "0x1.f25b68fc25221p-2"))),
    "rdc_binary-bh-args18-bits18":
        ("rdc_binary", "bh", (0.2, 0.9),
         ("0x1.83d537d064900p-1", "classification_limited",
          ("0x1.eb7ec7d52f1cep-1", "0x1.481382ad0e31cp-5"))),
    "rdc_binary-bh-args19-bits19":
        ("rdc_binary", "bh", (0.45, 0.95),
         ("0x1.57f28a0368180p-2", "classification_limited",
          ("0x1.a784381e53be4p-1", "0x1.61ef1f86b106fp-3"))),
    "rdc_binary-bh-args20-bits20":
        ("rdc_binary", "bh", (0.1, 0.99),
         ("0x1.0fdfcf3f21c19p-1", "distortion_limited",
          ("0x1.ccccccccccccdp-1", "0x1.999999999999ap-4"))),
    "rdc_binary-bd-args21-bits21":
        ("rdc_binary", "bd", (0.0, 0.5),
         ("0x0.0p+0", "distortion_limited", ("0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rpc_binary-b-args22-bits22":
        ("rpc_binary", "b", (0.0, 0.6),
         ("0x1.f929678eecd7fp-2", "classification_limited",
          ("0x1.eba2621e4ba00p-1", "0x1.e8c6cd28e9001p-4"))),
    "rpc_binary-b-args23-bits23":
        ("rpc_binary", "b", (0.1, 0.75),
         ("0x1.c052b30af6eccp-3", "classification_limited",
          ("0x1.ca63189df3e00p-1", "0x1.41ad6c4c48c01p-2"))),
    "rpc_binary-b-args24-bits24":
        ("rpc_binary", "b", (0.0, 0.4689955935893812),
         ("0x1.9f5fd8a90241cp-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_binary-b-args25-bits25":
        ("rpc_binary", "b", (0.0, 0.46899559358918125),
         ("0x1.9f5fd8a9063e2p-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_binary-b-args26-bits26":
        ("rpc_binary", "b", (0.0, 0.4689955935892812),
         ("0x1.9f5fd8a9063e2p-1", "classification_limited", ("0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_binary-b-args27-bits27":
        ("rpc_binary", "b", (0.2, 0.8812908992306927),
         ("0x0.0p+0", "zero_rate", ("0x1.8000000000000p-1", "0x1.8000000000000p-1"))),
    "rpc_binary-b-args28-bits28":
        ("rpc_binary", "b", (0.0, 0.95),
         ("0x0.0p+0", "zero_rate", ("0x1.8000000000000p-1", "0x1.8000000000000p-1"))),
    "rpc_binary-b-args29-bits29":
        ("rpc_binary", "b", (0.0, 0.3),
         ("nan", "infeasible", None)),
    "rpc_binary-b-args30-bits30":
        ("rpc_binary", "b", (0.05, 2.0),
         ("0x0.0p+0", "zero_rate", ("0x1.8000000000000p-1", "0x1.8000000000000p-1"))),
    "rpc_binary-bh-args31-bits31":
        ("rpc_binary", "bh", (0.0, 0.97),
         ("0x1.8fb5b0ee2bca0p-3", "classification_limited",
          ("0x1.82101f2241a00p-1", "0x1.f7bf8376f9800p-3"))),
    "rpc_binary-b0-args32-bits32":
        ("rpc_binary", "b0", (0.1, 0.2),
         ("0x1.0b3a28c4cf42cp-1", "classification_limited",
          ("0x1.f54ec3d0c7666p-1", "0x1.562785e713340p-4"))),
    "rdc_gaussian-g-args33-bits33":
        ("rdc_gaussian", "g", (0.3, 1.0122635892659404),
         ("0x1.34378fcbda721p-1", "distortion_limited",
          ("0x0.0p+0", "0x1.6666666666666p-1", "0x1.6666666666666p-1"))),
    "rdc_gaussian-g-args34-bits34":
        ("rdc_gaussian", "g", (0.8, 0.7622635892659404),
         ("0x1.a0e3a18f5d5cep-2", "classification_limited",
          ("0x0.0p+0", "0x1.1d32135a59b27p-1", "0x1.1d32135a59b27p-1"))),
    "rdc_gaussian-g-args35-bits35":
        ("rdc_gaussian", "g", (0.0, 0.8622635892659405),
         ("inf", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_gaussian-g-args36-bits36":
        ("rdc_gaussian", "g", (1.5, 1.1622635892659405),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"))),
    "rdc_gaussian-g-args37-bits37":
        ("rdc_gaussian", "g", (0.5, 1.0622635892659404),
         ("0x1.62e42fefa39efp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-1"))),
    "rdc_gaussian-g-args38-bits38":
        ("rdc_gaussian", "g", (0.5, 0.2318979858551149),
         ("inf", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_gaussian-g-args39-bits39":
        ("rdc_gaussian", "g", (0.5, 0.2318979858552149),
         ("0x1.eb1197e6e81a6p+3", "classification_limited",
          ("0x0.0p+0", "0x1.ffffffffffe5ap-1", "0x1.ffffffffffe5ap-1"))),
    "rdc_gaussian-g-args40-bits40":
        ("rdc_gaussian", "g", (0.5, 0.2318979858550149),
         ("inf", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_gaussian-g-args41-bits41":
        ("rdc_gaussian", "g", (0.2, 0.2318979858552149),
         ("0x1.eb1197e6e81a6p+3", "classification_limited",
          ("0x0.0p+0", "0x1.ffffffffffe5ap-1", "0x1.ffffffffffe5ap-1"))),
    "rdc_gaussian-g-args42-bits42":
        ("rdc_gaussian", "g", (0.5, 401.06226358926597),
         ("0x1.62e42fefa39efp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-1"))),
    "rdc_gaussian-g-args43-bits43":
        ("rdc_gaussian", "g", (0.9, 1.0622635892658405),
         ("0x1.af8e8210a4161p-5", "distortion_limited",
          ("0x0.0p+0", "0x1.9999999999998p-4", "0x1.9999999999998p-4"))),
    "rdc_gaussian-g-args44-bits44":
        ("rdc_gaussian", "g", (1e-300, 0.9622635892659405),
         ("0x1.5963447f87fb5p+8", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_gaussian-g-args45-bits45":
        ("rdc_gaussian", "g", (5e-324, 0.9622635892659405),
         ("inf", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rdc_gaussian-g-args46-bits46":
        ("rdc_gaussian", "g", (0.5, 0.2218979858551149),
         ("nan", "infeasible", None)),
    "rdc_gaussian-g2-args47-bits47":
        ("rdc_gaussian", "g2", (0.5, 0.7969521310417046),
         ("0x1.62e42fefa39efp-1", "distortion_limited",
          ("0x1.0000000000000p-1", "0x1.8000000000000p+0", "0x1.8000000000000p+0"))),
    "rdc_gaussian-g2-args48-bits48":
        ("rdc_gaussian", "g2", (1.9, 0.8069521310417046),
         ("0x1.a431d5bcc1930p-6", "distortion_limited",
          ("0x1.0000000000000p-1", "0x1.99999999999a0p-4", "0x1.99999999999a0p-4"))),
    "rdc_gaussian-g2-args49-bits49":
        ("rdc_gaussian", "g2", (0.01, 0.5484538806753612),
         ("0x1.7822fdc13060dp+1", "classification_limited",
          ("0x1.0000000000000p-1", "0x1.fe90a19348712p+0", "0x1.fe90a19348712p+0"))),
    "rdc_gaussian-gi-args50-bits50":
        ("rdc_gaussian", "gi", (0.5, 1.4189385332046727),
         ("0x1.62e42fefa39efp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-1"))),
    "rdc_gaussian-g1-args51-bits51":
        ("rdc_gaussian", "g1", (0.5, -3.0),
         ("0x1.1acfe390c9820p+2", "classification_limited",
          ("0x0.0p+0", "0x1.ffecfa3a4e4bep-1", "0x1.ffecfa3a4e4bep-1"))),
    "rpc_gaussian-g-args52-bits52":
        ("rpc_gaussian", "g", (0.0, 0.9622635892659405),
         ("0x1.03693ce545401p-3", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.e46aca8111117p-2"))),
    "rpc_gaussian-g-args53-bits53":
        ("rpc_gaussian", "g", (0.3, 0.7622635892659404),
         ("0x1.a0e3a18f5d5cep-2", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.7e203680585cap-1"))),
    "rpc_gaussian-g-args54-bits54":
        ("rpc_gaussian", "g", (0.0, 1.0622635892659404),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g-args55-bits55":
        ("rpc_gaussian", "g", (0.0, 401.06226358926597),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g-args56-bits56":
        ("rpc_gaussian", "g", (0.0, 0.2318979858551149),
         ("inf", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rpc_gaussian-g-args57-bits57":
        ("rpc_gaussian", "g", (0.0, 0.2318979858552149),
         ("0x1.eb1197e6e81a6p+3", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.fffffffffff2dp-1"))),
    "rpc_gaussian-g-args58-bits58":
        ("rpc_gaussian", "g", (0.0, 0.2318979858550149),
         ("inf", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rpc_gaussian-g-args59-bits59":
        ("rpc_gaussian", "g", (1.0, 1.0622635892658405),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g-args60-bits60":
        ("rpc_gaussian", "g", (inf, 0.8622635892659405),
         ("0x1.0b8fd0dfff3a0p-2", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.46a4adb4766f4p-1"))),
    "rpc_gaussian-g-args61-bits61":
        ("rpc_gaussian", "g", (0.0, 0.2218979858551149),
         ("nan", "infeasible", None)),
    "rpc_gaussian-g2-args62-bits62":
        ("rpc_gaussian", "g2", (0.0, 0.7669521310417046),
         ("0x1.097fb97a60d9fp-3", "classification_limited",
          ("0x1.0000000000000p-1", "0x1.0000000000000p+1", "0x1.e95f1b8df6004p-1"))),
    "rpc_gaussian-gi-args63-bits63":
        ("rpc_gaussian", "gi", (0.0, 1.4189385332046727),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g1-args64-bits64":
        ("rpc_gaussian", "g1", (0.0, -3.0),
         ("0x1.1acfe390c9820p+2", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.fff67d068902cp-1"))),
    # the witness keeps its bits whatever p is
    "rpc_gaussian-g-args65-bits65":
        ("rpc_gaussian", "g", (0.5, 0.9622635892659405),
         ("0x1.03693ce545401p-3", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.e46aca8111117p-2"))),
    "rpc_gaussian-g-args66-bits66":
        ("rpc_gaussian", "g", (0.0, 0.6622635892659404),
         ("0x1.23915db6a948ep-1", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.a62815fe32fd4p-1"))),
    "rpc_gaussian-g-args67-bits67":
        ("rpc_gaussian", "g", (1e-300, 0.2318979858551149),
         ("inf", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"))),
    "rpc_gaussian-g-args68-bits68":
        ("rpc_gaussian", "g", (2.0, 0.2318979858552149),
         ("0x1.eb1197e6e81a6p+3", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.fffffffffff2dp-1"))),
    "rpc_gaussian-g-args69-bits69":
        ("rpc_gaussian", "g", (5e-324, 1.0622635892659404),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g-args70-bits70":
        ("rpc_gaussian", "g", (0.0, 3.0622635892659407),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rpc_gaussian-g2-args71-bits71":
        ("rpc_gaussian", "g2", (inf, 0.7669521310417046),
         ("0x1.097fb97a60d9fp-3", "classification_limited",
          ("0x1.0000000000000p-1", "0x1.0000000000000p+1", "0x1.e95f1b8df6004p-1"))),
    "rpc_gaussian-g1-args72-bits72":
        ("rpc_gaussian", "g1", (1e300, -3.0),
         ("0x1.1acfe390c9820p+2", "classification_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.fff67d068902cp-1"))),
    "rate_given_pcd-gh-args73-bits73":
        ("rate_given_pcd", "gh", (0.5, 0.5, 0.5),
         ("nan", "infeasible", None)),
    "rate_given_pcd-gh-args74-bits74":
        ("rate_given_pcd", "gh", (0.5, inf, 1.3689385332046726),
         ("0x1.62e42fefa39edp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000001p-1", "0x1.0000000000000p-1"))),
    "rate_given_pcd-gh-args75-bits75":
        ("rate_given_pcd", "gh", (0.5, 0.0, 1.4189385332046727),
         ("0x1.a74269f84330ep-2", "perception_limited",
          ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.8000000000000p-1"))),
    "rate_given_pcd-gh-args76-bits76":
        ("rate_given_pcd", "gh", (0.5, 0.01, 1.3189385332046726),
         ("nan", "infeasible", None)),
    "rate_given_pcd-gh-args77-bits77":
        ("rate_given_pcd", "gh", (1.0, inf, 2.4189385332046727),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"))),
    "rate_given_pcd-gh-args78-bits78":
        ("rate_given_pcd", "gh", (0.5, inf, 301.41893853320465),
         ("0x1.62e42fefa39edp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000001p-1", "0x1.0000000000000p-1"))),
    "rate_given_pcd-gh-args79-bits79":
        ("rate_given_pcd", "gh", (2.0, 0.2, 1.4189385332046727),
         ("0x0.0p+0", "zero_rate", ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))),
    "rate_given_pcd-gh-args80-bits80":
        ("rate_given_pcd", "gh", (0.3, inf, 1.4089385332046727),
         ("0x1.34378fcbda722p-1", "distortion_limited",
          ("0x0.0p+0", "0x1.6666666666667p-1", "0x1.6666666666667p-1"))),
    "rate_given_pcd-gh-args81-bits81":
        ("rate_given_pcd", "gh", (0.5, 100000.0, 1.3689385332046726),
         ("0x1.62e42fefa39edp-2", "distortion_limited",
          ("0x0.0p+0", "0x1.0000000000001p-1", "0x1.0000000000000p-1"))),
    "rate_given_pcd-gh-args82-bits82":
        ("rate_given_pcd", "gh", (0.5, 0.02, 1.4189385332046727),
         ("0x1.7aaf95f6247e5p-2", "perception_limited",
          ("0x0.0p+0", "0x1.86ce34805e358p-1", "0x1.43671a402f1acp-1"))),
    "rate_given_pcd-gh-args83-bits83":
        ("rate_given_pcd", "gh", (0.7, 0.1, 1.3889385332046726),
         ("0x1.9b868a9c9baa0p-3", "perception_limited",
          ("0x0.0p+0", "0x1.20e5f85be0758p-1", "0x1.ba7f91f57a0f2p-2"))),
    "rate_given_pcd-gh-args84-bits84":
        ("rate_given_pcd", "gh", (0.5, 0.5, 1.2650974969787823),
         ("nan", "infeasible", None)),
    "rate_given_pcd-gh-args85-bits85":
        ("rate_given_pcd", "gh", (0.9, 0.05, 1.3689385332046726),
         ("0x1.ea95540cd6220p-3", "classification_limited",
          ("0x0.0p+0", "0x1.50a3a02cbb86dp+0", "0x1.6a3d39c655206p-1"))),
    "rate_given_pcd-gh-args86-bits86":
        ("rate_given_pcd", "gh", (1.5, 3.0, 1.3989385332046727),
         ("0x1.5d6429a394d11p-4", "classification_limited",
          ("0x0.0p+0", "0x1.74a3935e9b78fp+0", "0x1.e94726bd36f20p-2"))),
    "pc_frontier_given_rd-gh-args87-bits87":
        ("pc_frontier_given_rd", "gh", (0.5, 1.0, [0.7189385332046727, 1.3189385332046726,
                                          1.5189385332046728, 301.41893853320465]),
         (
          ("0x1.7018b61fe584ep-1", "nan", "nan",
           "nan", False),
          ("0x1.51a5f4a98c5c0p+0", "0x1.10730c688d66cp-4", "0x1.4a9049fd4c656p-1",
           "0x1.5370a0d2304e9p+0", True),
          ("0x1.84d927dcbf8f4p+0", "0x0.0p+0", "0x1.a74269f84330ep-2",
           "0x1.0000000000000p+0", True),
          ("0x1.2d6b3f8e4325fp+8", "0x0.0p+0", "0x1.a74269f84330ep-2",
           "0x1.0000000000000p+0", True),
         )),
    "pc_frontier_given_rd-gh-args88-bits88":
        ("pc_frontier_given_rd", "gh", (0.8, 0.3, [1.3689385332046726, 0.9189385332046727]),
         (
          ("0x1.5e72c1765928dp+0", "0x1.afc40bf9195e0p-10", "0x1.ea95540cd6225p-3",
           "0x1.0ac0692e5fc90p+0", True),
          ("0x1.d67f1c864beb4p-1", "nan", "nan",
           "nan", False),
         )),
    "pc_frontier_given_rd-gh-args89-bits89":
        ("pc_frontier_given_rd", "gh", (1.5, 0.0, [1.4189385332046727]),
         (
          ("0x1.6b3f8e4325f5ap+0", "0x1.3a37a020b8c1ep-3", "0x0.0p+0",
           "0x1.6a09e667f3bcdp-1", True),
         )),
}


@pytest.mark.parametrize("name, source, args, bits", _CASES.values(), ids=_CASES)
def test_scalar_closed_forms_keep_their_bits(name, source, args, bits):
    assert _bits(getattr(rdpc, name)(SOURCES[source], *args)) == bits


# (function, source, arguments, the start of the first DomainError's message):
# the distortion bound is checked first, then the perception bound, then C;
# keyed by test id as _CASES is
_FIRST_ERRORS = {
    "rdc_binary-b-args0-distortion bound must be nonnegative":
        ("rdc_binary", "b", (-1.0, nan), "distortion bound must be nonnegative"),
    "rdc_binary-b-args1-distortion bound must be nonnegative":
        ("rdc_binary", "b", (nan, nan), "distortion bound must be nonnegative"),
    "rdc_binary-b-args2-classification bound is NaN":
        ("rdc_binary", "b", (0.1, nan), "classification bound is NaN"),
    "rpc_binary-b-args3-perception bound must be nonnegative":
        ("rpc_binary", "b", (-0.1, nan), "perception bound must be nonnegative"),
    "rpc_binary-b-args4-classification bound is NaN":
        ("rpc_binary", "b", (0.1, nan), "classification bound is NaN"),
    "rdc_gaussian-g-args6-distortion bound must be nonnegative":
        ("rdc_gaussian", "g", (-1.0, nan), "distortion bound must be nonnegative"),
    "rdc_gaussian-g-args7-classification bound is NaN":
        ("rdc_gaussian", "g", (0.5, nan), "classification bound is NaN"),
    "rpc_gaussian-g-args9-perception bound must be nonnegative":
        ("rpc_gaussian", "g", (-1.0, nan), "perception bound must be nonnegative"),
    "rpc_gaussian-g-args10-perception bound must be nonnegative":
        ("rpc_gaussian", "g", (nan, 0.5), "perception bound must be nonnegative"),
    "rpc_gaussian-g-args11-classification bound is NaN":
        ("rpc_gaussian", "g", (0.1, nan), "classification bound is NaN"),
    "rpc_gaussian-g-args12-classification bound is NaN":
        ("rpc_gaussian", "g", (0.0, nan), "classification bound is NaN"),
    "rate_given_pcd-gh-args14-pinned distortion must be positive":
        ("rate_given_pcd", "gh", (0.0, -1.0, nan), "pinned distortion must be positive"),
    "rate_given_pcd-gh-args15-perception bound must be nonnegative":
        ("rate_given_pcd", "gh", (0.5, -1.0, nan), "perception bound must be nonnegative"),
    "rate_given_pcd-gh-args16-perception bound must be nonnegative":
        ("rate_given_pcd", "gh", (0.5, nan, 0.5), "perception bound must be nonnegative"),
    "rate_given_pcd-gh-args17-classification bound is NaN":
        ("rate_given_pcd", "gh", (0.5, 0.1, nan), "classification bound is NaN"),
    "pc_frontier_given_rd-gh-args18-rate level must be >= 0":
        ("pc_frontier_given_rd", "gh", (0.5, -1.0, [nan]), "rate level must be >= 0"),
    "pc_frontier_given_rd-gh-args19-pinned distortion must be positive":
        ("pc_frontier_given_rd", "gh", (-0.5, 1.0, [nan]), "pinned distortion must be positive"),
    "pc_frontier_given_rd-gh-args20-classification bound is NaN":
        ("pc_frontier_given_rd", "gh", (0.5, 1.0, [nan]), "classification bound is NaN"),
}


@pytest.mark.parametrize("name, source, args, message", _FIRST_ERRORS.values(),
                         ids=_FIRST_ERRORS)
def test_the_first_bad_argument_names_the_error(name, source, args, message):
    with pytest.raises(DomainError) as err:
        getattr(rdpc, name)(SOURCES[source], *args)
    assert str(err.value).startswith(message)


def test_the_conditional_forms_are_the_builtins_bit_for_bit():
    # the rule the scalar code is written in (see the closed_form docstring)
    rng = random.Random(36)
    special = [nan, 0.0, -0.0, inf, -inf, 5e-324, -5e-324, 0.5, 1.0, 1.5]
    for x in special + [rng.uniform(-2.0, 2.0) for _ in range(100)]:
        for y in special:
            assert float.hex(y if y > x else x) == float.hex(max(x, y))
            assert float.hex(y if y < x else x) == float.hex(min(x, y))
        for lo, hi in ((0.0, 1.0), (5e-324, 0.49), (-0.0, 0.0)):
            clamped = lo if lo > x else hi if hi < x else x
            assert float.hex(clamped) == float.hex(min(max(x, lo), hi))
