"""Dyadic ladder construction and the per-window error bound."""

import math
from collections import Counter

import numpy as np
import pytest

from driftest import windows
from driftest.dist import block_phis
from driftest.windows import (UNION_BOUND_CONSTANT, as_stream, build_ladder,
                              concentration_radius, dyadic_depth, ladder_phis, ladder_xis,
                              load_stream, parse_stream_text, union_log_weight)
from reference import dump_stream, parse_lines
import reference as ref


def brute_ladder(stream):
    """Suffix counts recomputed independently for each dyadic size."""
    t = len(stream)
    out = []
    j = 0
    while 2**j <= t:
        out.append(dict(Counter(stream[t - 2**j:])))
        j += 1
    return out


def ladder_as_dicts(ladder):
    """Each window's symbol counts, window j's probabilities times its 2^j samples."""
    return [dict(zip(w.symbols.tolist(), (w.probs * 2**j).astype(np.int64).tolist()))
            for j, w in enumerate(ladder)]


def test_ladder_hand_example():
    assert ladder_as_dicts(build_ladder([5, 5, 7, 7])) == [
        {7: 1}, {7: 2}, {5: 2, 7: 2}]


def test_ladder_single_sample():
    assert ladder_as_dicts(build_ladder([9])) == [{9: 1}]


def test_ladder_ignores_samples_beyond_largest_window():
    # T=5: depth floor(log2 5) = 2, so the oldest sample is never counted
    assert ladder_as_dicts(build_ladder([1, 2, 3, 4, 5])) == [
        {5: 1}, {4: 1, 5: 1}, {2: 1, 3: 1, 4: 1, 5: 1}]


def test_ladder_rejects_bad_streams():
    with pytest.raises(ValueError):
        build_ladder([])
    with pytest.raises(ValueError):
        build_ladder([3, -1])


def test_ladder_matches_brute_force_and_nests():
    rng = np.random.default_rng(42)
    int64_max = np.iinfo(np.int64).max
    for i in range(1000):
        t = int(rng.integers(1, 4097))
        stream = rng.integers(0, int(rng.integers(2, 30)), size=t)
        if i % 4 == 1:  # symbols up to the top of the int64 range
            stream = int64_max - stream
        elif i % 4 == 2:
            stream = stream.astype(np.int32)
        elif i % 4 == 3:
            stream = (stream * 2000).astype(np.uint16)
        ladder = build_ladder(stream)
        dicts = ladder_as_dicts(ladder)
        assert dicts == brute_ladder(stream.tolist())
        for j in range(len(dicts) - 1):
            for sym, count in dicts[j].items():
                assert count <= dicts[j + 1].get(sym, 0)


@pytest.mark.parametrize("t", [1, 5, 64, 1000, 4097])
def test_block_ladder_rows_equal_windows_counted_alone(t):
    rng = np.random.default_rng(t)
    streams = rng.integers(0, int(rng.integers(2, 40)), size=(5, t))
    streams[3] = 7  # one symbol throughout
    block = windows.LadderBlock(streams)
    assert block.js == list(range(dyadic_depth(t) + 1))
    phis = np.stack([block_phis(block.probs(c), block.runs(c)[2], 2**c)
                     for c in range(len(block.js))], axis=1)
    for i, stream in enumerate(streams):
        for c, window in enumerate(block.ladder(i)):
            symbols, counts = ref.window_counts(stream[t - 2**c:])
            for got, want in ((window.symbols, symbols), (window.probs, counts / 2**c)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
            assert phis[i, c] == ref.phi(stream[t - 2**c:])
    # one window size alone
    one = windows.LadderBlock(streams, [dyadic_depth(t)])
    assert one.js == [dyadic_depth(t)]
    assert np.array_equal(block_phis(one.probs(0), one.runs(0)[2], 2**dyadic_depth(t)),
                          phis[:, -1])
    assert [w.symbols.tolist() for w in one.ladder(2)] == [block.ladder(2)[-1].symbols.tolist()]


def test_depth():
    assert dyadic_depth(1) == 0
    assert dyadic_depth(5) == 2
    assert dyadic_depth(4096) == 12
    with pytest.raises(ValueError):
        dyadic_depth(0)


def xi_oracle(phi, j, delta):
    c = 4.0 * math.pi**2 / 3.0
    return phi + 3.0 * math.sqrt(math.log(c * (j * j + 1) / delta) / 2**j)


def xi_of(samples, j, delta):
    """The bound of window j, the most recent 2^j samples."""
    return ladder_xis(ladder_phis(build_ladder(samples)), delta)[j]


def test_xi_point_mass_j0():
    value = xi_of([3], 0, 0.05)
    assert value == pytest.approx(xi_oracle(1.0, 0, 0.05), abs=1e-12)
    assert value == pytest.approx(8.0820807, abs=1e-6)


def test_xi_mixed_window_j2():
    phi = (math.sqrt(0.5) + 0.5 + 0.5) / 2
    value = xi_of([0, 0, 1, 2], 2, 0.05)
    assert value == pytest.approx(xi_oracle(phi, 2, 0.05), abs=1e-12)
    assert value == pytest.approx(4.8735288, abs=1e-6)


def test_xi_large_constant_window_j10():
    value = xi_of([7] * 1024, 10, 0.05)
    assert value == pytest.approx(xi_oracle(1.0 / 32.0, 10, 0.05), abs=1e-12)
    assert value == pytest.approx(0.3304872, abs=1e-6)


def test_xi_strictly_decreasing_in_delta():
    values = [xi_of([0, 1, 2, 3], 2, d) for d in (0.01, 0.05, 0.2, 0.5, 0.9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_concentration_degenerates_at_j0():
    for delta in (0.05, 0.3):
        expected = 3.0 * math.sqrt(math.log(UNION_BOUND_CONSTANT / delta))
        assert concentration_radius(0, delta) == pytest.approx(expected, abs=1e-15)


def test_union_log_weight_is_vectorized_and_validated():
    rs = np.array([1, 2, 3, 8, 1000, 2**20])
    weights = union_log_weight(rs, 0.05)
    assert weights.shape == rs.shape
    for r, weight in zip(rs.tolist(), weights):
        lg = math.log2(r)
        assert weight == pytest.approx(
            math.log(UNION_BOUND_CONSTANT * (lg * lg + 1.0) / 0.05), abs=1e-12)
        assert union_log_weight(r, 0.05) == weight
    for delta in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="delta"):
            union_log_weight(rs, delta)
    for bad in (0, np.array([4, 0])):
        with pytest.raises(ValueError, match="window size"):
            union_log_weight(bad, 0.05)


def test_concentration_radius_is_the_dyadic_log_weight_bit_for_bit():
    # log2(2^j) = j exactly, so the weight at size 2^j is log(C (j^2+1) / delta)
    for delta in (1e-6, 0.01, 0.05, 0.1, 0.5, 0.9):
        for j in range(40):
            weight = math.log(UNION_BOUND_CONSTANT * (j * j + 1.0) / delta)
            assert concentration_radius(j, delta) == 3.0 * math.sqrt(weight / 2**j)


def scalar_radius(j, delta):
    """The radius of one window index, in the scalar arithmetic."""
    return 3.0 * math.sqrt(union_log_weight(2**j, delta) / 2**j)


def test_vector_radius_equals_scalar_radius_bit_for_bit():
    for delta in (1e-6, 0.01, 0.05, 0.1, 0.5, 0.9):
        radii = concentration_radius(np.arange(40), delta)
        assert radii.shape == (40,)
        for j, radius in enumerate(radii.tolist()):
            assert radius == scalar_radius(j, delta)
            assert concentration_radius(j, delta) == radius
    with pytest.raises(ValueError, match="window index"):
        concentration_radius(np.array([3, -1]), 0.05)


def test_xi_validation():
    phis = ladder_phis(build_ladder([1, 2]))
    with pytest.raises(ValueError):
        ladder_xis(phis, 0.0)
    with pytest.raises(ValueError):
        ladder_xis(phis, 1.0)


def test_ladder_xis_align_with_windows():
    stream = [1, 1, 2, 3, 1, 2, 1, 1]
    ladder = build_ladder(stream)
    phis = ladder_phis(ladder)
    xis = ladder_xis(phis, 0.1)
    assert len(phis) == len(xis) == len(ladder)
    for j, value in enumerate(xis):
        assert type(value) is float
        assert phis[j] == ref.phi(stream[8 - 2**j:])
        assert value == phis[j] + scalar_radius(j, 0.1)


def test_parse_stream_text():
    arr = parse_stream_text("# header\n\n5\n 7 \n0\n")
    assert arr.tolist() == [5, 7, 0]


def test_parse_stream_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_stream_text("1\nx\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_stream_text("1\n2\n-4\n")
    with pytest.raises(ValueError, match="empty sample stream"):
        parse_stream_text("# nothing\n\n")


INT64_MAX = str(np.iinfo(np.int64).max)
INT64_MIN = str(np.iinfo(np.int64).min)
# tokens int() reads its own way, or refuses, and the shapes the line loop
# forgives or rejects
PARSE_TOKENS = ["0", "7", "42", "+5", "1_000", "1__0", "_1", "\u0661\u0662", "\U0001d7d3",
                "\xb2", "0b1", "5.0", "-0", "-3", INT64_MAX, str(2**63), INT64_MIN,
                str(-2**63 - 1), "7" * 5000, "x", "#", "# c", "#5", "5 # five", "1 2",
                "1\t2", "1\xa02"]
PARSE_CORPUS = [
    "", "\n", "# only a comment\n", "# nothing\n\n", "1\n2\n3\n", "1\n2\n3", "5",
    "\n1\n", "1\n\n2\n", " 1\n2\n", "1 \n2\n", "\t1\n", "1\xa0\n2\n", "1\r\n2\r\n",
    "1\r2\r", "1 2\n", "# header\n5\n7\n", "5\n# trailer\n", "5 # five\n",
    "+5\n1_000\n\u0661\u0662\n", f"{INT64_MAX}\n", f"1\n{2**63}\n", "-0\n3\n", "3\n-2\n",
    "7" * 5000 + "\n", "1\n" + "7" * 5000 + "\n", "1\x0b2\x0c3\x1c4\u20285\x856\n",
    # error precedence: a bad line before an overflow, and line numbers
    # that count blank and comment lines
    f"{2**63}\nx\n", f"{2**63}\n-1\n", f"# c\n\n{2**63}\n",
    # digit files at the byte route's edges: runs of 18 bytes take it, runs
    # of 19 or more (which may pass int64) and every other byte leave it;
    # PARSE_TOKENS adds INT64_MAX and 2**63 as bare digit files
    "9" * 18 + "\n", "1" * 18 + "\n" + "9" * 18, "1" * 19 + "\n", "9" * 19 + "\n",
    "1\n" + "1" * 20 + "\n", "9" * 20, "0" * 30 + "7\n", f"{2**63}\n", "0" * 18 + "\n" + "0" * 19,
    "1\r\n\r\n2", "\r\n1\r\r2\n", "\r\n3\r",
    "\n\n", "\r\n", "\r\r\n\n", "12\n\n34", "1\n\x002\n", "1\n2\x00\n", "1\x0b2\n",
    "1\n\x1f\n", "1\n2\x7f\n", "0\n",
]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\u2028", "\x85"]
PADS = ["", "", "", "", " ", "\t", "\xa0", "\u3000"]


def _parse_outcome(parse, text):
    try:
        samples = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    assert samples.dtype == np.int64 and samples.ndim == 1
    return "array", samples.tolist()


def _fuzz_text(rng):
    lines = []
    for _ in range(rng.integers(0, 8)):
        token = (str(rng.integers(0, 10**6)) if rng.random() < 0.7
                 else PARSE_TOKENS[rng.integers(len(PARSE_TOKENS))])
        if rng.random() < 0.15:
            token = PADS[rng.integers(len(PADS))] + token + PADS[rng.integers(len(PADS))]
        lines.append(token + LINE_ENDS[rng.integers(len(LINE_ENDS))])
    return "".join(lines)


@pytest.mark.parametrize("text", PARSE_CORPUS + PARSE_TOKENS)
def test_parse_stream_text_equals_the_line_loop_on_the_corpus(text):
    assert _parse_outcome(parse_stream_text, text) == _parse_outcome(parse_lines, text)


def test_parse_stream_text_equals_the_line_loop_on_fuzzed_streams():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        text = _fuzz_text(rng)
        assert _parse_outcome(parse_stream_text, text) == _parse_outcome(parse_lines, text)


def _digit_text(rng):
    """Digit runs of 0 to 25 bytes between '\\n', '\\r\\n' or '\\r' line ends."""
    runs = ["".join(map(str, rng.integers(0, 10, size)))
            for size in rng.integers(0, 26, rng.integers(1, 9))]
    ends = rng.choice(["\n", "\r\n", "\r"], len(runs))
    text = "".join(run + end for run, end in zip(runs, ends))
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def test_parse_stream_text_equals_the_line_loop_on_fuzzed_digit_files():
    rng = np.random.default_rng(17)
    for _ in range(10000):
        text = _digit_text(rng)
        assert _parse_outcome(parse_stream_text, text) == _parse_outcome(parse_lines, text)


@pytest.mark.parametrize("edit", [
    lambda text: text, lambda text: text[:-1],
    lambda text: text.replace("\n", "\n\n", 100), lambda text: "\n" + text + "\n\n",
    lambda text: text.replace("\n", "\r\n"), lambda text: text.replace("\n", "\r"),
], ids=["well_formed", "no_final_newline", "blank_lines", "blank_ends", "crlf", "cr"])
def test_a_digit_file_never_reaches_the_line_route(edit, monkeypatch):
    samples = np.random.default_rng(4).integers(0, 10**18, 2**16)
    samples[:3] = [0, 10**18 - 1, 7]
    text = "\n".join(map(str, samples.tolist())) + "\n"

    def line_route(text):
        raise AssertionError("the line route ran")

    monkeypatch.setattr(windows, "_parse_stripped_lines", line_route)
    assert np.array_equal(parse_stream_text(edit(text)), samples)


@pytest.mark.parametrize("edit", [
    lambda text: text, lambda text: "# header\n" + text, lambda text: text + "\n",
    lambda text: text.replace("\n", "\n\n", 100),
], ids=["well_formed", "header", "trailing_blank", "blank_lines"])
def test_an_accepted_stream_never_reaches_the_error_search(edit, monkeypatch):
    samples = np.random.default_rng(3).integers(0, 10**6, 2**16)
    text = "\n".join(map(str, samples.tolist())) + "\n"

    def search(text):
        raise AssertionError("the error search ran")

    monkeypatch.setattr(windows, "_stream_error", search)
    assert np.array_equal(parse_stream_text(edit(text)), samples)


def test_stream_file_round_trip(tmp_path):
    path = tmp_path / "stream.txt"
    dump_stream([3, 1, 4, 1, 5], path)
    assert load_stream(path).tolist() == [3, 1, 4, 1, 5]


@pytest.mark.parametrize("samples", [
    [0.9, 1.7, 2.2], np.array([0.9, 0.9, 1.5, 1.5]), [True, False], ["1", "2"],
    [2**70], np.array([2**63], dtype=np.uint64),
], ids=["float_list", "float_array", "bool", "numeric_string", "beyond_int64",
        "uint64_beyond_int64"])
def test_streams_must_hold_int64_range_integers(samples):
    with pytest.raises(ValueError, match="samples must be integers within the int64 range"):
        as_stream(samples)
    with pytest.raises(ValueError, match="samples must be integers within the int64 range"):
        build_ladder(samples)


def test_int64_stream_is_not_copied():
    stream = np.arange(16, dtype=np.int64)
    assert as_stream(stream) is stream
    assert as_stream(np.arange(4, dtype=np.int32)).dtype == np.int64
