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
    (10, 0.0, 0.1): "463c4d4daa23d23c766be73c7b5a5a4de0104bdda26f3d92d97e4b717c20b0ea",
    (10, 0.0, 0.05): "3be7395f09acf593aaedabcec94f01e28a85390e93fa79a5d2041b62b07bc05a",
    (10, 1e-12, 0.5): "074dcea4fe62ab7395683662cb7843a0e72d0a148e2c97d9197dc29f044303e1",
    (10, 1e-12, 0.1): "266089f582d16e00bd4d799bfdbd2e1d29c22b3f13953828fd00836da740cef9",
    (10, 1e-12, 0.05): "b153fd2915830ff86e3ce3f830b35abc1c003a06c6f2b1ab8ead7d4dd5fcb3c2",
    (10, 0.37, 0.5): "caade716305eb882ce1b6f334aadfe5a942680d5bc1daf671ca340479c368ebd",
    (10, 0.37, 0.1): "770c5c80bb353f407ac05def2b47139c5017fdcbf615412823e78c742b514311",
    (10, 0.37, 0.05): "157e2d8ad00241224538fa6719172915325421fa02c1a40ee670da0051a4957e",
    (10, 1.0, 0.5): "39a81e2719e357b68c1d519d7f2936ee0862a045fb155deee5448bd7a241da3f",
    (10, 1.0, 0.1): "427af9a52a1c8156269fb12e38f6d3195b2a73c12a9937add3da169adc0c396e",
    (10, 1.0, 0.05): "9e8cb60ea910766cbf686470970d230eebb9dc2a208dd0985336d212bd25aa6a",
    (30, 0.0, 0.5): "f6c064fe967cba2b579c830ec6e2436f43ba2c1582c742a528afb2139993d658",
    (30, 0.0, 0.1): "7f206970afd1053c2b4b5c2b94152e5a4c87d8619b6beba45cc05a376b3d4bd0",
    (30, 0.0, 0.05): "d79ca02ec2918643bf1115d019030352dc00ddb1b91befbf423963bc00f9ac16",
    (30, 1e-12, 0.5): "9a3c71ffb4e50625fe15ab35748edf5cd345d3c5d2cd053d0facee804d6f7dd9",
    (30, 1e-12, 0.1): "264201900b801ae75bb89c2cdc60d4f2a737818db7d0d7b36a07cdd782047d0a",
    (30, 1e-12, 0.05): "381115090a031c664a260e479ae5498f10629821191e67412ca937a434873cbb",
    (30, 0.37, 0.5): "44b00045f60e350bb9e29e444cd552dec4e0b1721097fdc383462b45d4747e2c",
    (30, 0.37, 0.1): "57bd8e6ea41e88ad975ae3d105af8f43f281793e6ff097c7fda6bfc74ac322a4",
    (30, 0.37, 0.05): "8c8bdc1e40963f940d0510792bbfc57b5a82c748274443973793d7f1cc6a4fa2",
    (30, 1.0, 0.5): "025851f70d89cd30df4cde6dd68a5e4429c0251058e681d52e8ac016d7921db6",
    (30, 1.0, 0.1): "871a2e9ad0829170379b095ba023a907669ca9d678bd987625cd746d8044855a",
    (30, 1.0, 0.05): "defcbbaf43a0c20994368498bc1bce26229d8d66579a7557ad687d4c75c18d09",
    (64, 0.0, 0.5): "f8e68007e61cd72ddd65204dbbf329dbed0a8777fe9dceb62b2768330db92866",
    (64, 0.0, 0.1): "d1ca418f82a43aa6e9a42654a2e7930628329e9862b3e1d2707aa0423909e748",
    (64, 0.0, 0.05): "9495759ca9669d76c67d582e0bee790901c905aebc866a51c1f4e670e43df0f3",
    (64, 1e-12, 0.5): "87db3e09ec68d95d4774c5363adc22598bb72c2e01ea46b9d3cc4359a291e55f",
    (64, 1e-12, 0.1): "d45d54830846d7cd75954545ed2bf8b779827627c4d8247fe50bfedc3a36e266",
    (64, 1e-12, 0.05): "5a361c3bd9617bd6f41c019ed753b1534515990091b7db9cd91747469bea5592",
    (64, 0.37, 0.5): "e7ea1548e9a49e5e4c623a63bcf65cbf86b38a7a838be90738d4923d1e8aa0a0",
    (64, 0.37, 0.1): "23b77f126b68a425cfd9599261b79549a89d8fdfc46ac015875f8ccd1f703fb5",
    (64, 0.37, 0.05): "93953e9069f9404eba461fbc63418ceb4317d97584d90b3408a1e3052713d30e",
    (64, 1.0, 0.5): "5ed381618a42cd98acdcd59da8beae5d8c9e57995bd2c7eb6a40e8c52d422806",
    (64, 1.0, 0.1): "253054acac2c6bec0c81f5b150ba47dffe220bee41d38bf48d289264159a7b28",
    (64, 1.0, 0.05): "cf3aa4f713fbb0bf84fb361709afbb68b0610b3554def6e5317ee9cf636ba276",
    (10, 0.0, 0.01): "be4b5a96adb4f7fffdf566de08952657c1980db706bd69d1802482bb02ab8721",
    (10, 1e-12, 0.01): "fcdabf1386c1b562b12e6172b83f4fab36dd98388d13d38db5757c6b6a72ba5e",
    (10, 0.37, 0.01): "15164acf058516af3aaa160ef321ef08cd4ddfb6827ff54d8d0abb6433b7ec57",
    (10, 1.0, 0.01): "009c267aa15fb84e9e7e70b13d2fd7b41a76575604101630cccd69f9f14d25f2",
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
