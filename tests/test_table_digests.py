"""The OFRP grid tables and expanded stationary vectors stay bit-identical.

Each case hashes both ``ofrp.grid_table`` arrays and ``_expanded_stationary``
over the same grid points, in order, with sha256.  The digests were recorded
before the search moved to small in-place blocks, so any change to how the
table is computed that moves one bit of it fails here.
"""

import hashlib
import itertools
from functools import lru_cache

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
    (10, 0.0, 0.1): "a6ef52797ad3fc5e0ad155778ba244ff536a1b33885ac9845e3d74f359fe9e96",
    (10, 0.0, 0.05): "37610efa748ac17d3d8937a480ad1e4f0175a1dc777d871a8bd8a75258113b5a",
    (10, 1e-12, 0.5): "d76cd1ec4be54a2f1d79c3f5c5aa90ead7ed84791a5f762567fe12b28c2f5847",
    (10, 1e-12, 0.1): "ef792ca9a7749ee5706cc8dd0f40ca44f28e4bd3f8facba83c7cf7c23601cefc",
    (10, 1e-12, 0.05): "c1084d314f9a094d62d19f110e7c6c09c85809617d97243268c258155a0ea1ac",
    (10, 0.37, 0.5): "2cc73faf4dc9e126777200b67d55ddd0bc6effae0aac782383b927b6826a5d68",
    (10, 0.37, 0.1): "dbb49da81daf9d0d5e349c0ff5d3b2ae5ed8917c64daeaad98fa2b5eca768c78",
    (10, 0.37, 0.05): "5de0faded554f01575433dc67d1fae9efab2ec12acff9a0c0ee4bdd1089583d4",
    (10, 1.0, 0.5): "39a81e2719e357b68c1d519d7f2936ee0862a045fb155deee5448bd7a241da3f",
    (10, 1.0, 0.1): "49805be278abc74bb8b33de221c66d36f6ab1cf2d7f671067c080ef6a8df65d9",
    (10, 1.0, 0.05): "3a95d7aa4ddf42a8eab82481dbb6299576a76a18dd00c431d4b40de28a9d1df7",
    (30, 0.0, 0.5): "14fcb8945156795ce6d1d6cca6a3931460d2b932c47bfafd2a39ed8bc5525ba2",
    (30, 0.0, 0.1): "cef8a4386abf1446b0e826787615434bb8fd58306feb7ad96ed2ab2d77c3a4c5",
    (30, 0.0, 0.05): "5e9f4dc0f04d9471a45d00a6ef8657f400fc7db46f9749a006f15e8fe192048f",
    (30, 1e-12, 0.5): "35bc154c01c65ed2d8a48992fbfc66c2722ed861066d1c0f54ba98df6500248f",
    (30, 1e-12, 0.1): "b614b4afc2b8ff457ea13c64879b2df2bcd917b15ecfbd56e1379d648271df3b",
    (30, 1e-12, 0.05): "3e26a3d52ffd3400d4c6ed00cb89ade026a7c899acb481789b0d24fc02226cb4",
    (30, 0.37, 0.5): "76a5722b8b40a846306b6b09f498bca6627610fa6232e5de1ad7ab6cca2f966d",
    (30, 0.37, 0.1): "1086cfa6fafec2a384b194696a06892bb97898d11a9dae43bab85aaded5a9529",
    (30, 0.37, 0.05): "b6282a48afab914b4cf7f9dd38e8a8b4f5d9c63246d5a6f6fdcbbb5f478c8987",
    (30, 1.0, 0.5): "e8d0fc7d57657f6553974583e82d8978d0ca98b5f83ef3f519767f5e11069e07",
    (30, 1.0, 0.1): "8c0a75cd682a0e4574ba8c8a5b87d20e838e8e195a1e8695eb9f86e92f4089d1",
    (30, 1.0, 0.05): "6e720a4c56fa3e33e00452519147b7522e6d3cd75f866ec27ac830819434a1c2",
    (64, 0.0, 0.5): "30bfe9f3873c8932cc0ef4ac098ccc6e0403adbc3deeafafd70ef764c897b2fa",
    (64, 0.0, 0.1): "8d9a732e7fd16b13886f8443b1fdb93fb2288cd363a453c80ddfe7885c7bf6a5",
    (64, 0.0, 0.05): "eecfc87de5945f47a2c41c22957afa9010e1d4769d6a29b35a6f6f8c6cd2a8c1",
    (64, 1e-12, 0.5): "4fc77a407be1a45e7f76fb0256e31b1047024396736f0c76d932bd357faf2852",
    (64, 1e-12, 0.1): "f49e167769cbebabe254d308375ebdb31dea12a21ada7f680a12c81da9304941",
    (64, 1e-12, 0.05): "32a3d2db2a45b6281a9330250ec3d538dc7ef7519b9c4a4b62136209750c51df",
    (64, 0.37, 0.5): "e83aba134bff9e9cd2896ae6176faa6e61db145519bfbc23a3bc441cabb3e946",
    (64, 0.37, 0.1): "4bcfbe20052e2200280a649b30aaad8fe4f8347a0f628fbc81ca6d7a70ea8543",
    (64, 0.37, 0.05): "393e1c1b0da7a69cc56bc550b87bd5adecf6f69ca525c3cbe457246514626b2c",
    (64, 1.0, 0.5): "23b5bd2cbadff35bb27695f4453c481a3977c3b17ddb13464903e0a24b7d7600",
    (64, 1.0, 0.1): "81574cfd063b8d9736d693683d62d8c4e6c4c25c31579395829400c3231d8841",
    (64, 1.0, 0.05): "20b48e6b262f0d3694e347835a6db68ae9fe426d05a2a75a9f66f2acb86d3361",
    (10, 0.0, 0.01): "6ee384cd267f2acefe444331f8641fb047b830c1434c116cfd0c588ee5ae6c66",
    (10, 1e-12, 0.01): "d8f134a09e5484716b13a8c3a3179efd565cab5865a3fb0496103a57becec9dd",
    (10, 0.37, 0.01): "c9fa7a5a97aee5adcf2f23db42e2471031ff9f0c69daf60c579fd9b9b32835b2",
    (10, 1.0, 0.01): "66b1806020727be7df3049039b4e5b36b2f5b6d67a68371d881ad77c3658dc5e",
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
