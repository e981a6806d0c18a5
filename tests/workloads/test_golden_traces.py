"""Golden traces: every profile's trace set is pinned by its sha256, and
the zipf_hot_set tables its cores share live only as long as one
``traces()`` call."""

import hashlib
import random

import pytest

from repro.workloads.micro import MICRO_PROFILES
from repro.workloads.parsec import PARSEC_PROFILES, profile
from repro.workloads.patterns import shared_tables, zipf_hot_set

REGION_BLOCKS = 8 * 1024 * 1024 // 64  # 8 MiB test region
ACCESSES, CORES, SEED = 2000, 4, 3

#: sha256 of ``repr(p.traces(ACCESSES, REGION_BLOCKS, CORES, SEED))``.
#: A change to any of these is a change to every exhibit built on that
#: profile: it needs new committed results, not a new digest alone.
GOLDEN = {
    "blackscholes": "53e69f2af64686a04e83f6f3ade81c0663aba673cafab91d02a90ab35958357b",
    "bodytrack": "08a02d8b06752f58aa056a18dd6b05947d35d52cb269e086a038a4c2f7836559",
    "canneal": "79d7b325d1f2eaacf12af3f505b0ca1e5273c3abd1908286941454ce2f36fab0",
    "dedup": "956e8a5cb0accac154a916e3c7927291de347c837d887e2d73091dff7bf4debc",
    "facesim": "c1a6a898fad96d65e0615bb518750a8d34e88fac9085ee5ede4a5a836501e584",
    "ferret": "28d9af94ecb0963b1004d25df0c7c310b0f3307d6197ece5c89ed2bff1e32ddc",
    "fluidanimate": "7f5e803a37149ad537df997ea0f438e2516480172057ea7923a7499f297643ed",
    "freqmine": "582483e0af7b987ed6f1ebb50a2e6c27df654dc19555354bb1565fcc8d740ddc",
    "raytrace": "e2570de919eb30d8f782faff3252afde1795cf6f08a098672c1214200d9b266a",
    "swaptions": "aca8007f01364151c8ada45245a3e0ee2e3366b17d2a4baff9f03f2ee65bae18",
    "vips": "0fe1272ae335814137e7c030af0835084e3c07191c224012635412e0ec3218c1",
    "gups": "d0dcb8e5af7b8ef8a447920887c8db2939167a0c571f585cc9d2be88337f6562",
    "pointer_chase": "5d3bf7efd10b320201bc3b05ad52d185ed29c8fe1dc7cc192cc2df48ae0c4246",
    "stencil": "628802d3ef2fee307ec2fa3f18a4b90251a4e718993fafdeb872eaeb10cd91c6",
    "stream": "683449ef43f8cd955c1cdc64afc3d64d26148699b8cc8148f45696e67d2f252c",
    "strided_write": "36b78ba109abc406203a6019c5681455c9cb30588ce7c51146c49acc518996b9",
}

PROFILES = {**PARSEC_PROFILES, **MICRO_PROFILES}


def test_every_profile_is_pinned():
    assert set(GOLDEN) == set(PROFILES)


def test_cdf_is_the_same_on_every_python():
    """canneal's hot-set CDF, bit for bit: ``sum()`` rounds differently
    from Python 3.12 on, so the total must not come from it."""
    cdf = zipf_hot_set(8192, write_fraction=0.5, s=1.25)._cdf
    assert hashlib.sha256(repr(cdf).encode()).hexdigest() == (
        "ae43799c70468d54c78aab3aaf936e1467fc0269e1beeedf315574e0f627d922"
    )


@pytest.mark.parametrize("name", sorted(PROFILES))
class TestGoldenTraces:
    def test_digest(self, name):
        traces = PROFILES[name].traces(ACCESSES, REGION_BLOCKS, CORES, SEED)
        digest = hashlib.sha256(repr(traces).encode()).hexdigest()
        assert digest == GOLDEN[name]

    def test_shared_tables_equal_per_core_traces(self, name):
        """Sharing tables leaks no state from one core to the next."""
        p = PROFILES[name]
        assert p.traces(ACCESSES, REGION_BLOCKS, CORES, SEED) == [
            p.trace(ACCESSES, REGION_BLOCKS, core=c, seed=SEED)
            for c in range(CORES)
        ]


@pytest.fixture
def shuffles(monkeypatch):
    """Count ``random.Random.shuffle`` calls: one per table built."""
    calls = []
    original = random.Random.shuffle

    def counting(self, x):
        calls.append(len(x))
        return original(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting)
    return calls


class TestTableSharing:
    def test_one_table_per_geometry_per_call(self, shuffles):
        # canneal builds three zipf_hot_set geometries on each core.
        profile("canneal").traces(200, REGION_BLOCKS, cores=4, seed=3)
        assert len(shuffles) == 3

    def test_each_call_starts_cold(self, shuffles):
        canneal = profile("canneal")
        canneal.traces(200, REGION_BLOCKS, cores=4, seed=3)
        canneal.traces(200, REGION_BLOCKS, cores=4, seed=3)
        assert len(shuffles) == 6

    def test_patterns_outside_traces_build_their_own(self, shuffles):
        # A finished traces() call must leave no tables behind to share.
        profile("canneal").traces(10, REGION_BLOCKS, cores=2, seed=3)
        shuffles.clear()
        a = zipf_hot_set(64, write_fraction=0.5, span_blocks=4096)
        b = zipf_hot_set(64, write_fraction=0.5, span_blocks=4096)
        assert len(shuffles) == 2
        assert a._placement == b._placement
        assert a._placement is not b._placement

    def test_patterns_in_a_block_share(self, shuffles):
        with shared_tables():
            a = zipf_hot_set(64, write_fraction=0.5, span_blocks=4096)
            b = zipf_hot_set(64, write_fraction=0.9, span_blocks=4096,
                             base_block=7)
            c = zipf_hot_set(64, write_fraction=0.5, span_blocks=2048)
        assert len(shuffles) == 2
        assert a._placement is b._placement
        assert a._cdf is b._cdf
        assert c._placement is not a._placement
        assert isinstance(a._placement, list)
