"""The Hurwitz zeta port behind the zipf family, checked bit for bit.

``driftgen._hurwitz_zeta`` ports the Cephes ``zeta(x, q)`` routine that
``scipy.special.zeta`` runs.  The table below was captured from
``scipy.special.zeta`` 1.17.1 and is stored as ``float.hex``, so the
comparison holds without scipy installed; when scipy is present, a live
sweep compares the two directly.
"""

import math

import numpy as np
import pytest

from driftest.driftgen import _hurwitz_zeta

TABLE_Q = (1, 2, 10, 1000, 2**20, 15_000_000)
# exponent -> zeta(exponent, q) for each q in TABLE_Q
TABLE = {
    1.01: ("0x1.924fd060e723ap+6", "0x1.8e4fd060e723bp+6", "0x1.8717f7a5db2a5p+6",
           "0x1.754db7e30ca11p+6", "0x1.5c3860cb980aep+6", "0x1.5313dc7c27be7p+6"),
    1.5: ("0x1.4e6250bfbd89dp+1", "0x1.9cc4a17f7b13cp+0", "0x1.4c1d609eb7d34p-1",
          "0x1.031e5a4ffb790p-4", "0x1.0000040000101p-9", "0x1.0ebdbce49932ap-11"),
    2.0: ("0x1.a51a6625307d4p+0", "0x1.4a34cc4a60fa8p-1", "0x1.aec2e54649b88p-4",
          "0x1.06466dfb5dfdfp-10", "0x1.00000800002abp-20", "0x1.1e54c712a811bp-24"),
    2.6: ("0x1.4e33cb2f9f0f3p+0", "0x1.38cf2cbe7c3cap-2", "0x1.16af0ce7fd744p-6",
          "0x1.4ca467cf56a07p-17", "0x1.40001000006e7p-33", "0x1.2218ee9562c87p-39"),
    3.0: ("0x1.33ba004f00620p+0", "0x1.9dd002780310ap-3", "0x1.6a14bbe9b38d6p-8",
          "0x1.0cb43b06cc03ap-21", "0x1.0000100000800p-41", "0x1.404188e0ee93ap-49"),
    4.5: ("0x1.0e014fb990e64p+0", "0x1.c029f7321cc99p-5", "0x1.c238991bc5c29p-14",
          "0x1.3e7347bd6c273p-37", "0x1.2492692493c92p-72", "0x1.b0f1c87a03581p-86"),
    4.75: ("0x1.0b7cdc2d949c8p+0", "0x1.6f9b85b2938ecp-5", "0x1.de3f7b975975cp-15",
           "0x1.a6e2aa94d4ec3p-40", "0x1.1111311112a66p-77", "0x1.9f8d7f31a3afbp-92"),
    5.0: ("0x1.097418eca7cd0p+0", "0x1.2e831d94f99b9p-5", "0x1.fe42454a245dap-16",
          "0x1.1a09d44e70d07p-42", "0x1.0000200001aabp-82", "0x1.90a3e6f91fd95p-98"),
    7.25: ("0x1.01c8ee41bf17dp+0", "0x1.c8ee41bf17e0cp-8", "0x1.04ce3de003258p-23",
           "0x1.0d9117d8311d2p-65", "0x1.47ae547ae61d0p-128", "0x1.49dfec706bc43p-152"),
    10.0: ("0x1.00412e33a5bbap+0", "0x1.04b8ce96ee5fap-10", "0x1.7439c1ee9ff99p-33",
           "0x1.1af84b26f28f4p-93", "0x1.c71cf1c729c72p-184", "0x1.37af40481b8f4p-218"),
}


@pytest.mark.parametrize("x", sorted(TABLE))
def test_matches_the_captured_table_exactly(x):
    for q, want in zip(TABLE_Q, TABLE[x]):
        assert _hurwitz_zeta(x, q) == float.fromhex(want), (x, q)
        assert _hurwitz_zeta(x, float(q)) == float.fromhex(want), (x, q)


@pytest.mark.parametrize("x, q, want", [
    # every term underflows: the zero sum runs on to the end, as in C (0/0 is NaN there)
    (1000.0, 3, 0.0),
    (1000.0, 1000, 0.0),
    (1100.0, 2, 0.0),
    # only the first term survives
    (1000.0, 1, 1.0),
    (1000.0, 2, float.fromhex("0x1.0000000000000p-1000")),
    (math.inf, 1, 1.0),
])
def test_underflowing_terms_do_not_stop_the_sum(x, q, want):
    assert _hurwitz_zeta(x, q) == want


def test_an_infinite_exponent_past_q_1_is_nan_as_in_cephes():
    assert math.isnan(_hurwitz_zeta(math.inf, 3))


def test_matches_scipy_exactly_on_a_sweep():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20240)
    xs = rng.uniform(1.01, 10.0, size=3000)
    # integer q as the zipf truncation search uses it, small and large
    qs = np.concatenate([rng.integers(1, 64, size=1000),
                         rng.integers(1, 20_000_002, size=2000)])
    for x, q in zip(xs.tolist(), qs.tolist()):
        assert _hurwitz_zeta(x, q) == float(special.zeta(x, q)), (x, q)


def test_matches_scipy_exactly_where_terms_underflow():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20241)
    xs = rng.uniform(300.0, 1200.0, size=300)
    qs = rng.integers(1, 64, size=300)
    for x, q in zip(xs.tolist(), qs.tolist()):
        assert _hurwitz_zeta(x, q) == float(special.zeta(x, q)), (x, q)
