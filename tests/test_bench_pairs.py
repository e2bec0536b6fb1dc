"""The verdict arithmetic and output comparison of ``tools/bench_pairs.py`` on synthetic samples."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    # executed from its source, as test_exports reads perfbench/spans.py
    namespace = {"__name__": "bench_pairs", "__file__": str(BENCH_PAIRS)}
    exec(compile(BENCH_PAIRS.read_text(), str(BENCH_PAIRS), "exec"), namespace)
    return namespace


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # median 1.045, IQR 0.045


def _verdict(bench_pairs, after, before=PARENT, bound=0.25, lower=True):
    summ = bench_pairs["summary"](before, after, lower)
    return bench_pairs["verdict"](summ, bound, lower)


def test_gain_resolved_needs_nine_tenths_of_the_pairs(bench_pairs):
    assert _verdict(bench_pairs, [x - 0.1 for x in PARENT])["gain_resolved"]
    # one tie and nine wins is enough, two ties are not: ties count for neither side
    one_tie = [PARENT[0]] + [x - 0.1 for x in PARENT[1:]]
    assert _verdict(bench_pairs, one_tie)["gain_resolved"]
    two_ties = PARENT[:2] + [x - 0.1 for x in PARENT[2:]]
    assert not _verdict(bench_pairs, two_ties)["gain_resolved"]


def test_gain_resolved_needs_the_medians_beyond_the_parent_spread(bench_pairs):
    # ten wins by 0.04 each: the medians differ by 0.04, inside the parent's IQR of 0.045
    v = _verdict(bench_pairs, [x - 0.04 for x in PARENT])
    assert not v["gain_resolved"] and not v["worse_beyond_bound"]
    assert _verdict(bench_pairs, [x - 0.05 for x in PARENT])["gain_resolved"]


def test_worse_beyond_bound_in_either_direction(bench_pairs):
    # lower is better: 30 % slower is beyond a 25 % bound, 20 % is not
    assert _verdict(bench_pairs, [1.3 * x for x in PARENT])["worse_beyond_bound"]
    assert not _verdict(bench_pairs, [1.2 * x for x in PARENT])["worse_beyond_bound"]
    # higher is better: a 30 % lower rate is worse, a 30 % higher one a resolved gain
    assert _verdict(bench_pairs, [0.7 * x for x in PARENT], lower=False)["worse_beyond_bound"]
    faster = _verdict(bench_pairs, [1.3 * x for x in PARENT], lower=False)
    assert faster["gain_resolved"] and not faster["worse_beyond_bound"]


def test_spread_wider_than_bound(bench_pairs):
    # the parent's IQR 0.045 against its median 1.045: wider than a 4 % bound, not than 5 %
    assert _verdict(bench_pairs, PARENT, bound=0.04)["spread_wider_than_bound"]
    v = _verdict(bench_pairs, PARENT, bound=0.05)
    assert v == {"bound": 0.05, "gain_resolved": False, "worse_beyond_bound": False,
                 "spread_wider_than_bound": False}


def test_bounds_read_from_the_benchmark_declaration(bench_pairs):
    bounds = bench_pairs["end_to_end_bounds"](ROOT)
    assert set(bounds) == set(bench_pairs["METRICS"])
    assert bounds["wall_s"] == 0.25 and bounds["peak_rss_mb"] == 0.05


def test_differing_files_names_each_changed_or_unmatched_file(bench_pairs, tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for side in (before, after):
        (side / "sub").mkdir(parents=True)
        (side / "same.csv").write_bytes(b"1,2\n")
        (side / "sub" / "moved.csv").write_bytes(b"0.1\n")
    (after / "sub" / "moved.csv").write_bytes(b"0.10000000000000001\n")
    (before / "gone.csv").write_bytes(b"")
    (after / "new.csv").write_bytes(b"")
    digests = bench_pairs["file_digests"]
    assert set(digests(before)) == {"same.csv", "gone.csv", str(Path("sub", "moved.csv"))}
    differ = bench_pairs["differing_files"]
    assert differ(digests(before), digests(after)) == ["gone.csv", "new.csv", str(Path("sub", "moved.csv"))]
    assert differ(digests(before), digests(before)) == []


def test_clear_bytecode_caches_removes_only_the_caches_under_src_and_perfbench(bench_pairs, tmp_path):
    kept = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "tools" / "__pycache__" / "t.cpython-311.pyc",
            tmp_path / "perfbench" / "run.py"]
    cached = [tmp_path / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc",
              tmp_path / "src" / "__pycache__" / "top.cpython-311.pyc",
              tmp_path / "perfbench" / "micro" / "__pycache__" / "m.cpython-311.pyc"]
    for path in kept + cached:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
    stray = tmp_path / "src" / "data" / "__pycache__"  # a file of that name, not a cache directory
    stray.parent.mkdir()
    stray.write_bytes(b"")
    removed = bench_pairs["clear_bytecode_caches"](tmp_path)
    assert removed == [str(Path("perfbench", "micro", "__pycache__")), str(Path("src", "__pycache__")),
                       str(Path("src", "pkg", "__pycache__"))]
    assert all(path.exists() for path in kept) and not any(path.parent.exists() for path in cached)
    assert stray.is_file()
    assert bench_pairs["clear_bytecode_caches"](tmp_path) == []
    # a checkout without one of the two directories has nothing there to clear
    assert bench_pairs["clear_bytecode_caches"](tmp_path / "tools") == []


def test_one_pair_is_its_own_quartiles(bench_pairs):
    summ = bench_pairs["summary"]([1.0], [0.9])
    assert summ["before"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "samples": [1.0]}
    assert summ["after"]["median"] == 0.9 and summ["after_wins"] == 1 and summ["pairs"] == 1
    v = bench_pairs["verdict"](summ, 0.25)
    assert v["gain_resolved"] and not v["worse_beyond_bound"] and not v["spread_wider_than_bound"]
