"""Verdicts of tools/bench_pairs.py's summary on hand-made pairs, and its
copy of the working tree."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RUN_S = {"name": "run_s", "better": "lower", "bound": 0.25}
RATE = {"name": "items_per_s", "better": "higher", "bound": 0.25}


def _pairs(metric, ref, change, digests=None, correct=True, failed=None):
    """One pair per (ref, change) value of the metric; failed holds the
    (ref, change) failed counts of each pair, out of 10 items a run."""
    digests = digests or ["d"] * len(ref)
    failed = failed or [(0, 0)] * len(ref)
    return [{"seed": k + 1,
             "ref": {"metrics": {metric: r}, "digest": "d", "correct": True,
                     "failed": fr, "attempted": 10},
             "change": {"metrics": {metric: c}, "digest": dg,
                        "correct": correct, "failed": fc, "attempted": 10}}
            for k, (r, c, dg, (fr, fc))
            in enumerate(zip(ref, change, digests, failed))]


def _verdict(metric, ref, change):
    summary = bench_pairs.summarize(_pairs(metric["name"], ref, change), [metric])
    row = summary[metric["name"]]
    return row["change_wins"], row["gain"], row["within_bound"]


REF = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]  # q3 - q1 = 0.45


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    faster = [r - 1.0 for r in REF]
    assert _verdict(RUN_S, REF, faster) == (10, True, True)
    # one lost pair still leaves nine tenths
    assert _verdict(RUN_S, REF, faster[:9] + [4.0]) == (9, True, True)
    # two lost pairs do not
    assert _verdict(RUN_S, REF, faster[:8] + [4.0, 4.0]) == (8, False, True)
    # every pair won, but by less than the ref's interquartile spread
    assert _verdict(RUN_S, REF, [r - 0.4 for r in REF]) == (10, False, True)


def test_ties_count_for_neither_side():
    assert _verdict(RUN_S, REF, REF) == (0, False, True)


def test_within_bound_is_relative_to_the_ref_median():
    # ref median 3.45: the bound 0.25 allows up to 4.3125
    assert _verdict(RUN_S, REF, [r + 0.8 for r in REF])[1:] == (False, True)
    assert _verdict(RUN_S, REF, [r + 0.9 for r in REF])[1:] == (False, False)


def test_higher_is_better_metrics_flip_the_direction():
    rates = [100.0 + k for k in range(10)]  # median 104.5, q3 - q1 = 4.5
    assert _verdict(RATE, rates, [r + 10.0 for r in rates]) == (10, True, True)
    assert _verdict(RATE, rates, [r * 0.8 for r in rates]) == (0, False, True)
    assert _verdict(RATE, rates, [r * 0.7 for r in rates]) == (0, False, False)


def _unresolved(metric, ref, change):
    pairs = _pairs(metric["name"], ref, change)
    return bench_pairs.summarize(pairs, [metric])[metric["name"]]["unresolved"]


def test_unresolved_when_the_ref_spread_exceeds_the_bound():
    # ref median 3.45, q3 - q1 = 0.45: a bound of 0.1 allows 0.345
    tight = {**RUN_S, "bound": 0.1}
    assert _unresolved(tight, REF, REF)
    assert _unresolved(tight, REF, [r - 0.5 for r in REF])
    # unless every change run beats every ref run
    assert not _unresolved(tight, REF, [r - 1.0 for r in REF])
    rates = [100.0 + 10 * k for k in range(10)]  # median 145, q3 - q1 = 45
    assert _unresolved({**RATE, "bound": 0.1}, rates, rates)
    assert not _unresolved({**RATE, "bound": 0.1}, rates,
                           [r + 100.0 for r in rates])


def test_a_ref_spread_within_the_bound_is_resolved():
    # 0.45 is within 0.25 * 3.45; the verdict does not look at the change
    assert not _unresolved(RUN_S, REF, REF)
    assert not _unresolved(RUN_S, REF, [r + 5.0 for r in REF])


@pytest.mark.parametrize("digests, correct, expected",
                         [(None, True, (True, True)),
                          (["d"] * 9 + ["e"], True, (False, True)),
                          (None, False, (True, False))])
def test_digests_and_correctness_over_all_pairs(digests, correct, expected):
    pairs = _pairs("run_s", REF, REF, digests, correct)
    summary = bench_pairs.summarize(pairs, [RUN_S])
    assert (summary["digests_equal"], summary["all_correct"]) == expected


@pytest.mark.parametrize("failed, shares, not_worse",
                         [(None, (0.0, 0.0), True),
                          ([(1, 1)] + [(0, 0)] * 9, (0.01, 0.01), True),
                          ([(2, 0)] + [(0, 1)] * 9, (0.02, 0.09), False),
                          ([(0, 0)] * 9 + [(3, 2)], (0.03, 0.02), True)])
def test_failed_share_is_summed_over_the_runs_of_each_side(failed, shares,
                                                           not_worse):
    summary = bench_pairs.summarize(_pairs("run_s", REF, REF, failed=failed),
                                    [RUN_S])
    share = summary["failed_share"]
    assert (share["ref"], share["change"]) == pytest.approx(shares)
    assert summary["failed_share_not_worse"] is not_worse


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout


def test_snapshot_copies_the_working_tree_and_leaves_the_index(tmp_path,
                                                              monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "edited.txt").write_text("committed\n")
    (repo / "gone.txt").write_text("committed\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "edited.txt").write_text("edited, not staged\n")
    (repo / "staged.txt").write_text("new, staged\n")
    _git(repo, "add", "staged.txt")
    (repo / "new.txt").write_text("new, untracked\n")
    (repo / "noise.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    status = _git(repo, "status", "--porcelain")
    index = (repo / ".git" / "index").read_bytes()

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    change, ref = tmp_path / "change", tmp_path / "ref"
    change.mkdir()
    ref.mkdir()
    bench_pairs.snapshot(change)
    bench_pairs.extract("HEAD", ref)

    def files(root):
        return {p.name: p.read_text() for p in root.iterdir()}

    assert files(change) == {".gitignore": "*.log\n", "kept.txt": "committed\n",
                             "edited.txt": "edited, not staged\n",
                             "staged.txt": "new, staged\n",
                             "new.txt": "new, untracked\n"}
    assert files(ref) == {".gitignore": "*.log\n", "kept.txt": "committed\n",
                          "edited.txt": "committed\n", "gone.txt": "committed\n"}
    assert (repo / ".git" / "index").read_bytes() == index
    assert _git(repo, "status", "--porcelain") == status


def test_first_seed_sets_the_seeds_and_pairs_alternate(monkeypatch):
    args = bench_pairs.parse_args(["--ref", "HEAD", "--workload", "w",
                                   "--out", "x.json", "--first-seed", "11",
                                   "--pairs", "3"])
    assert (args.first_seed, args.pairs) == (11, 3)
    assert bench_pairs.parse_args(["--ref", "HEAD", "--workload", "w",
                                   "--out", "x.json"]).first_seed == 1
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--ref", "HEAD", "--workload", "w",
                                "--out", "x.json", "--first-seed", "-1"])
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, seed))
        return {"metrics": {"run_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    pairs = bench_pairs.run_pairs({"ref": "R", "change": "C"}, "w", seeds, 15)
    assert [p["seed"] for p in pairs] == [11, 12, 13]
    assert [p["first"] for p in pairs] == ["ref", "change", "ref"]
    assert runs == [("R", 11), ("C", 11), ("C", 12), ("R", 12), ("R", 13),
                    ("C", 13)]


def test_verdict_lines_name_each_metric_once():
    metrics = [RUN_S, RATE, {"name": "setup_s", "better": "lower",
                             "bound": 0.1}, {**RUN_S, "name": "peak"}]
    rates = [100.0 + k for k in range(10)]
    pairs = [{"seed": k + 1,
              "ref": {"metrics": {"run_s": r, "items_per_s": q, "setup_s": r,
                                  "peak": 1.0},
                      "digest": "d", "correct": True, "failed": 0,
                      "attempted": 10},
              "change": {"metrics": {"run_s": r - 1.0, "items_per_s": q * 0.9,
                                     "setup_s": r, "peak": 2.0},
                         "digest": "d", "correct": True, "failed": 0,
                         "attempted": 10}}
             for k, (r, q) in enumerate(zip(REF, rates))]
    lines = bench_pairs.verdict_lines("w", bench_pairs.summarize(pairs, metrics),
                                      metrics)
    assert lines == [
        "w run_s: 3.45 (3.225-3.675) -> 2.45 (2.225-2.675), 10/10 won, gain",
        "w items_per_s: 104.5 (102.2-106.8) -> 94.05 (92.02-96.07), 0/10 won, "
        "within_bound",
        "w setup_s: 3.45 (3.225-3.675) -> 3.45 (3.225-3.675), 0/10 won, "
        "unresolved",
        "w peak: 1 (1-1) -> 2 (2-2), 0/10 won, beyond_bound",
        "w: digests equal True, all correct True, failed share 0 -> 0"]
