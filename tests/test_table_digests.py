"""The OFRP grid tables and expanded stationary vectors stay bit-identical.

Each case hashes both ``ofrp.grid_table`` arrays and ``_expanded_stationary``
over the same grid points, in order, with sha256.  Neither calls BLAS, and
their sums are added in an order that the code and the arrays' shapes set,
never the CPU, so the digests pin bits that hold under any BLAS or numpy
SIMD kernel; the last test checks that on this host's kernels.  Any change
to how the table is computed that moves one bit of it fails here.
"""

import hashlib
import itertools
import os
import platform
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from aoisched import ofrp
from aoisched.model import transition_table

# Doubles per ``_expanded_stationary`` call (4 MB), whatever the state count.
_BUDGET = 1 << 19

_CASES = [(cap, p, step) for cap, p, step in itertools.product(
    (2, 3, 10, 30, 64), (0.0, 1e-12, 0.37, 1.0), (0.5, 0.1, 0.05))]
_CASES += [(10, p, 0.01) for p in (0.0, 1e-12, 0.37, 1.0)]

# (cap, success_prob, step) -> sha256 of avg_aoi, empty_fraction, then the
# expanded vectors, at alpha 0.5
_DIGESTS = {
    (2, 0.0, 0.5): "7ac2f1bb41009625d44da837df4ebf8a86fd50134a577aa9070ec779d81bedc0",
    (2, 0.0, 0.1): "10ce3eca8085ab47b71f02e7bef280b627acd4b80baddf3cdc626d0ef500ef18",
    (2, 0.0, 0.05): "0d4cab5ea368f4b6e8c40ceb60d3b40148cb74df51c14c915416650217bcaacb",
    (2, 1e-12, 0.5): "a9714530e80655be0c8e231f25ca7600554ee3bf4260d3c345f1954a1f4c6a90",
    (2, 1e-12, 0.1): "0506851deb3f6e12c60e939dfdb4381c6983e5c20accf0228d93410ad7cfa1c8",
    (2, 1e-12, 0.05): "88bbfaefd3a5ed65735a0e607e33e0328aa238ebe822c0c5b7b29c7717ab33c4",
    (2, 0.37, 0.5): "5a6eeb54d33482cde2723c5d76b5664fe2550dee73ca5750918641b2c5d08b94",
    (2, 0.37, 0.1): "5fe0f990d8768fdb32ad48ea82697e967d3cd2ec27c24bae489984bbeb5e5cc5",
    (2, 0.37, 0.05): "90ae6da18e393e9d949a893cf70366372abb9f1c9c06120961dddee0c17fd42c",
    (2, 1.0, 0.5): "e26126fa2b7257d99cc0509c131de0d08ad5a11b9efb6156cb845c0934176417",
    (2, 1.0, 0.1): "cb4c1524005d267374f3c1d9bdcb0447d64d5d30ad29676b4308a543284e0a2f",
    (2, 1.0, 0.05): "e16345e84b4dec670296835a4727bd01a3148767396c87802bead49da8e445d6",
    (3, 0.0, 0.5): "2028eeab8a830a87db13ff1a969cceb1d67e78f3f804f68be035c02a1135119c",
    (3, 0.0, 0.1): "4dfd44460119e5de133f65f51151a0ddd90afb4db49459429546ef47a7e8be86",
    (3, 0.0, 0.05): "b0479e10c38e95da18e06bc82611e7e9e7c7ddce606221a22dcceed7592f6329",
    (3, 1e-12, 0.5): "82d47cc3dca767117bc36c1756a3ba226b81bb4e71816f9a2371334c61c654b6",
    (3, 1e-12, 0.1): "13f1a4b9f4ff69d6dee35127c0792585e4a8a7abc0c50e5ec2ad40ab69e57a60",
    (3, 1e-12, 0.05): "0528b859feab1d69844fb7e51019a07471ba916d457a054e32085b83d0cb8bc7",
    (3, 0.37, 0.5): "e66eeabd81f759fb67f239a7d1f53772247054c7c35dc850521ca2e1391b74d3",
    (3, 0.37, 0.1): "3ff80b5ea003eee3a30b6a94514856f4dc14d23d9a1efd790e5af3bdbf838986",
    (3, 0.37, 0.05): "d84cdef775f299986b2c0575fd53f409adec2c1b4963f0579d3a463d922d25bc",
    (3, 1.0, 0.5): "f5f7df148ebdbec211a3bd1423e430dd003d9f9e18eb77d1c2bf6ca3d07f6f91",
    (3, 1.0, 0.1): "e2eea607c6cba3ef9d5245db38af1c4cbaa657232996833a544ee025fa0f0362",
    (3, 1.0, 0.05): "110746ae907038c0a500408d5a97d41889e1d6e201e13eada3667ba7527c2f7a",
    (10, 0.0, 0.5): "c909340189f4e3a4053a4228f412305e6a28f3a9e6d447d087e38b22b6eaf2c7",
    (10, 0.0, 0.1): "163057974618725d3cf77019ff1dcefebc756fbdef57bac74f9b06ee849ccb34",
    (10, 0.0, 0.05): "0e4ca01712a0bef00c5a131d2b9d4010ea2183643b8cf0fa4e5fffefb3ece066",
    (10, 1e-12, 0.5): "ee715b40462a55e94288bdf5b572c53e4344e60dbb203f3c2468ff6d00ddc391",
    (10, 1e-12, 0.1): "caefafdd01ba37ad2a2dfc20b97fd9a99378167bf86e0ccda00ddc9414c3d2c1",
    (10, 1e-12, 0.05): "f87db7e13467c3216fde6ad36d0c3d28d6fb36c8cfb285e5ac61e293919c5df5",
    (10, 0.37, 0.5): "fb7c3a8967ffcb27acc43796edcee26321a525e6e10b3bafa25af0db4f241f6a",
    (10, 0.37, 0.1): "e493ea65d6f5d4d98f78e442eb278c29ce59af586e94ec0159757b311ff072be",
    (10, 0.37, 0.05): "76aa634954a90eb73f0c3dc99fd50b2b89310a6d31887b0843a7594c3bd16f1a",
    (10, 1.0, 0.5): "39a81e2719e357b68c1d519d7f2936ee0862a045fb155deee5448bd7a241da3f",
    (10, 1.0, 0.1): "cfdc56b937e52a39b715e0c3329d03e7143c3a9ee2343ecd13dc1cd67ba50537",
    (10, 1.0, 0.05): "6d810e78cdb689ab2e88dbdcbe2f43219e2806b41bcb08e885366f47bd630f31",
    (30, 0.0, 0.5): "d7a68f79fdca09576063e5c8b51f78b61a43ed33cdfbae44a1b1600b7713c0cb",
    (30, 0.0, 0.1): "5294823e76e8cbe2a46b82b2ad2b070d0b3d5ef88cbc0c2140ca2b191d0eeff8",
    (30, 0.0, 0.05): "7d151b9515b4ef61819f54f59b02bdfd4c35a60409440b622988b9d464aa47ab",
    (30, 1e-12, 0.5): "3ec93cfebb894c5d4da1f0bde9a8682940c9782c6f200150cec0a55bc7e05537",
    (30, 1e-12, 0.1): "19379db620c5b7cee5b030b8dddfd891b0a9c430076715f9a6e1475133c8f145",
    (30, 1e-12, 0.05): "a19bfa80b9e456b9097bd4bcb3726327e469b4a4bce7439d5797353dbfd1c1fc",
    (30, 0.37, 0.5): "7a8b5f1636d55ea500d5dddbb5f3008de987b91c8d149cb1954161e3d0b035c7",
    (30, 0.37, 0.1): "31b1081557b9cecee59d3f978577673245213e091686018b324e1722a77e4ca2",
    (30, 0.37, 0.05): "1dff9edb7a61d56b99e3b40518503b73deda517e6f7fb06d1082ecb1db26c9b4",
    (30, 1.0, 0.5): "025851f70d89cd30df4cde6dd68a5e4429c0251058e681d52e8ac016d7921db6",
    (30, 1.0, 0.1): "b1a34e3b617d94f18351aba535ab5e536f12b104eac63b765a70722d79635b47",
    (30, 1.0, 0.05): "3adc80e48b8c149ad28cc70ba44dc57d8f2060df0fd6bfbbe39aea1790c95fbf",
    (64, 0.0, 0.5): "358ad9b399cd87f7730c714da0888cd2b941428a02c13829f7e4a78e9dfde431",
    (64, 0.0, 0.1): "5c67b52e51358bb74762bdccc3076920104847a73ea4fa0d9698a625cd54e2ad",
    (64, 0.0, 0.05): "aa74fd87666973314ab221685cecd308d41755acc6d5cf967748b82a660a69be",
    (64, 1e-12, 0.5): "5d68c764363ea16a47e2ea40dfe5bebce0818d1a759a16eb6282f44375238d33",
    (64, 1e-12, 0.1): "978fe620141ab6733b8a434f35fd65e2f7923b0570fdd0988050081077e21597",
    (64, 1e-12, 0.05): "065cb561c2d5aac48be0645e350937f37fb15bb7fa68c241bc7f84f2a22d89ec",
    (64, 0.37, 0.5): "0ec0bc7b6fffd0ccaf2c50f64460cdf1f3d87759fdcc91c5ddb253e2375e265a",
    (64, 0.37, 0.1): "f9a164212b78b2d69dd6d17043327bf2df69801f79656579cd9aefa9101132a4",
    (64, 0.37, 0.05): "f972925ae750216c1991abab581544719f9a667ae21e4c784fc0a488b20478c6",
    (64, 1.0, 0.5): "62999aac628fe83b2ca79c8566b95d294ed002a0c61531dd3eb1260771f1914d",
    (64, 1.0, 0.1): "1f3aa2ea25af5adc2da16da202fda690a54aee7a683dbdd0453c97aed36561cd",
    (64, 1.0, 0.05): "2a9bbe5e8dcbfd902ecd2ab8e49a13dbd9bdb7a85b3e021f4112b0e7041b6a98",
    (10, 0.0, 0.01): "0c16782884b72d82418bfd7b79f684ca3db7f1ef69f0c5acf14fa22861f0ee71",
    (10, 1e-12, 0.01): "e2221b6c68778086e8287debf8b3e86e350490f1df98b47b873ab1d2d5751460",
    (10, 0.37, 0.01): "08e47457293183dbc3246137579e950329f72dd8c45ee77cc8e3d5aef8d61e9d",
    (10, 1.0, 0.01): "65471958215d2b4b3d8d8de4365d300790eb257f7acc037fa488834f90ccfa8c",
}


@lru_cache(maxsize=1)
def _points(step):
    """The grid in scan order: sample_occupied major, then retransmit_old
    (u + q <= 1), then sample_empty > 0."""
    n = round(1 / step)
    return np.array([(iu / n, iq / n, iue / n) for iu in range(n + 1)
                     for iq in range(n + 1 - iu) for iue in range(1, n + 1)]).T


def _digest(alpha, p, cap, step):
    sha = hashlib.sha256()
    for column in ofrp.grid_table.__wrapped__(alpha, p, cap, step):
        sha.update(np.ascontiguousarray(column).tobytes())
    u, q, ue = _points(step)
    rows = max(1, _BUDGET // len(transition_table(cap).states))
    for lo in range(0, len(u), rows):
        at = slice(lo, lo + rows)
        coeff = ofrp._coefficients(alpha, u[at], q[at], ue[at], p)
        sha.update(ofrp._expanded_stationary(coeff, cap).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("cap, p, step", _CASES,
                         ids=[f"cap{c}-p{p!r}-step{s}" for c, p, s in _CASES])
def test_tables_keep_their_recorded_digests(cap, p, step):
    assert _digest(0.5, p, cap, step) == _DIGESTS[cap, p, step]


# One sha256 over small tables and a few ``metrics`` triples, printed by a
# fresh interpreter.
_PORTABLE = """
import hashlib
from aoisched import ofrp
sha = hashlib.sha256()
for cap in (3, 10, 30):
    for p in (0.0, 0.37, 1.0):
        for column in ofrp.grid_table(0.5, p, cap, 0.1):
            sha.update(column.tobytes())
for u, p, cap in ((ofrp.OfrpUserParams(0.5, 0.4, 0.2, 0.6), 0.8, 10),
                  (ofrp.OfrpUserParams(1.0, 0.3, 0.5, 0.9), 0.35, 30),
                  (ofrp.OfrpUserParams(1 / 3, 0.0, 0.7, 0.05), 0.0, 64),
                  (ofrp.OfrpUserParams(0.5, 0.1, 0.1, 0.7), 1.0, 17)):
    sha.update(repr(ofrp.metrics(u, p, cap, 1.0, 5.0)).encode())
print(sha.hexdigest())
"""


def _kernel_settings():
    """The default kernels, OpenBLAS's Prescott kernel (SSE3, which any
    current x86-64 CPU runs), and numpy without the SIMD targets it
    dispatched to on this host: each setting only drops to older kernels
    than the host's."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:     # numpy 1.x
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    settings = [{}, {"OPENBLAS_CORETYPE": "Prescott"}]
    if dispatched:
        settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)})
    return settings


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel settings name x86-64 kernels")
def test_tables_and_metrics_have_the_same_bits_under_every_kernel():
    src = str(Path(ofrp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for setting in _kernel_settings():
        env = dict(os.environ, PYTHONPATH=path, **setting)
        done = subprocess.run([sys.executable, "-c", _PORTABLE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        digests[repr(setting)] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests
