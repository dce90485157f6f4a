"""Smoke runs of the experiment scripts under ``scripts/``, the benchmark recorder's pairing
and the search and CLI report comparisons' summaries and flow-call counter."""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from sasakigeo import models, subriemannian as sr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_energy_landscape_marks_only_half_critical():
    done = run_script("energy_landscape.py", "--samples", "2", "--lmax", "8")
    assert done.returncode == 0, done.stderr
    marked = [line for line in done.stdout.splitlines() if "<-- critical" in line]
    assert len(marked) == 1 and marked[0].strip().startswith("c = 0.50"), done.stdout


def test_diameter_survey_within_bound():
    done = run_script("diameter_survey.py", "--model", "s3", "--pairs", "2")
    assert done.returncode == 0, done.stderr
    assert "within bound" in done.stdout, done.stdout


def test_deformation_sweep_flags_nothing():
    done = run_script(
        "deformation_sweep.py", "--ratios", "2.0", "--pairs", "2",
        "--volume-samples", "2000",
    )
    assert done.returncode == 0, done.stderr
    assert "<-- check" not in done.stdout, done.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench():
    return load_script("bench")


def fake_run(value):
    return {"metrics": {} if value is None else {"ops_per_s": {"unit": "1/s", "value": value}}}


def test_bench_pair_summary_counts_wins_by_direction():
    bench = load_bench()
    base = [fake_run(v) for v in (1.0, 2.0, 3.0, None, 4.0)]
    change = [fake_run(v) for v in (2.0, 2.0, 1.5, 5.0, 5.0)]
    higher = bench.pair_summary(base, change, "ops_per_s", "higher")
    assert higher == {"pairs": 4, "won": 2, "lost": 1, "ratios": [2.0, 1.0, 0.5, None, 1.25],
                      "median_ratio": 1.125}
    lower = bench.pair_summary(base, change, "ops_per_s", "lower")
    assert (lower["won"], lower["lost"], lower["ratios"]) == (1, 2, higher["ratios"])


def test_bench_alternates_the_side_that_runs_first(monkeypatch):
    bench = load_bench()
    calls = []

    def run(repo, workload, seed, seconds, trace):
        calls.append((repo, seed, trace))
        return {"seed": seed, "exit": 0, **fake_run(2.0 if repo == "new" else 1.0)}

    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(bench, "SEEDS", (7, 8, 9))
    spec = {"run_seconds": 1, "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    out = bench.bench_workload("w", {"base": "old", "change": "new"}, spec)
    assert calls == [("old", 7, 0), ("new", 7, 0), ("new", 8, 0), ("old", 8, 0),
                     ("old", 9, 0), ("new", 9, 0), ("old", 1, 1), ("new", 1, 1)]
    assert out["pairs"]["ops_per_s"] == {"pairs": 3, "won": 3, "lost": 0,
                                         "ratios": [2.0, 2.0, 2.0], "median_ratio": 2.0}
    assert out["base"]["end_to_end"]["ops_per_s"]["median"] == 1.0
    assert [r["seed"] for r in out["change"]["runs"]] == [7, 8, 9]


def test_bench_records_the_change_alone_without_a_base(monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(bench, "run", lambda repo, workload, seed, seconds, trace:
                        {"seed": seed, "exit": 0, **fake_run(1.0)})
    monkeypatch.setattr(bench, "SEEDS", (7, 8))
    spec = {"run_seconds": 1, "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    out = bench.bench_workload("w", {"change": "new"}, spec)
    assert list(out) == ["change"]
    assert [r["seed"] for r in out["change"]["runs"]] == [7, 8]


def test_bench_runs_both_sides_from_fresh_copies(monkeypatch, tmp_path):
    # the change runs from a copy of the working tree and the base from its
    # export, each in its own temporary directory, never from the checkout
    bench = load_bench()
    repo = tmp_path / "checkout"
    repo.mkdir()
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    made, calls = {}, []

    def copy(source, dest):
        assert source == str(repo)
        made["change"] = dest

    def export(source, rev, dest):
        assert (source, rev) == (str(repo), "HEAD~1")
        made["base"] = dest
        return "f" * 40

    def run(side_dir, workload, seed, seconds, trace):
        assert os.path.isdir(side_dir)
        calls.append((side_dir, seed, trace))
        return {"seed": seed, "exit": 0, **fake_run(2.0 if side_dir == made["change"] else 1.0)}

    monkeypatch.setattr(bench, "copy_worktree", copy)
    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(bench, "SEEDS", (7, 8, 9))
    assert bench.main(["--repo", str(repo), "--base", "HEAD~1"]) == 0
    old, new = made["base"], made["change"]
    assert len({old, new, str(repo)}) == 3
    assert all(os.path.dirname(d) == tempfile.gettempdir() for d in (old, new))
    assert calls == [(old, 7, 0), (new, 7, 0), (new, 8, 0), (old, 8, 0),
                     (old, 9, 0), (new, 9, 0), (old, 1, 1), (new, 1, 1)]
    assert not os.path.exists(old) and not os.path.exists(new)
    record = json.loads((repo / "BENCH_1.json").read_text())
    assert record["base"] == {"rev": "HEAD~1", "git_head": "f" * 40}
    assert record["workloads"]["w"]["pairs"]["ops_per_s"]["won"] == 3


def test_bench_copies_the_working_tree_as_git_lists_it(tmp_path):
    bench = load_bench()
    repo, dest = tmp_path / "repo", tmp_path / "copy"

    def git(*argv):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], check=True, capture_output=True)

    (repo / "src").mkdir(parents=True)
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("out/\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "gone.py").unlink()
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("{}")
    bench.copy_worktree(str(repo), str(dest))
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "edited\n"


def test_compare_searches_reports_status_changes_and_the_largest_gap():
    cmp = load_script("compare_searches")
    base = {"a": [["converged", 1.0, 1e-6, 10], ["converged", 2.0, 2e-6, 12],
                  ["budget-exhausted", None, 0.5, 30]],
            "b": [["converged", 0.5, 0.0, 4]]}
    same = cmp.compare(base, base)
    assert same == {
        "a": {"pairs": (3, 3), "status_changes": [], "max_gap": 0.0, "max_miss_gap": 0.0,
              "rounds": (52, 52)},
        "b": {"pairs": (1, 1), "status_changes": [], "max_gap": 0.0, "max_miss_gap": 0.0,
              "rounds": (4, 4)},
    }
    assert not cmp.failed(same)
    change = {"a": [["converged", 1.0 + 2e-16, 1e-6, 10], ["budget-exhausted", None, 0.25, 30],
                    ["converged", 3.0, 0.5, 20]],
              "b": [["converged", 0.375, 1e-3, 7]]}
    moved = cmp.compare(base, change)
    assert moved["a"]["status_changes"] == [(1, "converged", "budget-exhausted"),
                                            (2, "budget-exhausted", "converged")]
    assert moved["a"]["max_gap"] == 2.220446049250313e-16
    assert moved["a"]["max_miss_gap"] == 0.25 - 2e-6 and moved["a"]["rounds"] == (52, 60)
    assert moved["b"] == {"pairs": (1, 1), "status_changes": [], "max_gap": 0.125,
                          "max_miss_gap": 1e-3, "rounds": (4, 7)}
    assert cmp.failed(moved)
    # a moved distance, miss or round total is reported, not failed
    assert not cmp.failed({"b": moved["b"]})
    # a set that lost pairs fails even with no status change among the rest
    short = cmp.compare(base, {"a": base["a"][:2], "b": base["b"]})
    assert short["a"]["pairs"] == (3, 2) and not short["a"]["status_changes"]
    assert short["a"]["rounds"] == (52, 22)
    assert cmp.failed(short)


def test_compare_cli_reports_exit_key_and_value_changes_and_the_largest_gap():
    cmp = load_script("compare_searches")
    report = {"schema": 1, "timestamp": "then", "status": "converged", "distance": 1.0,
              "rows": [{"miss": 0.5, "alpha0": None}], "passed": True}
    base = {"a": [0, report], "b": [3, {"timestamp": "then", "distance": None}]}
    same = cmp.compare_cli(base, {"a": [0, dict(report, timestamp="now")], "b": base["b"]})
    assert same == {
        "a": {"exit": (0, 0), "key_changes": [], "value_changes": [], "max_gap": 0.0},
        "b": {"exit": (3, 3), "key_changes": [], "value_changes": [], "max_gap": None},
    }
    assert not cmp.cli_failed(same)
    # numbers may move; the largest |Δ| is reported and fails nothing
    moved = dict(report, distance=1.0 + 2e-16, rows=[{"miss": 0.75, "alpha0": None}])
    gap = cmp.compare_cli(base, {"a": [0, moved], "b": base["b"]})
    assert gap["a"]["max_gap"] == 0.25 and not cmp.cli_failed(gap)
    # an exit code, a key or a value that is not a number may not
    change = {
        "a": [2, dict(report, passed=False, rows=[{"miss": 0.5, "alpha0": 0.5}], extra=1)],
        "b": [3, {"timestamp": "then", "distance": 2.0}],
    }
    out = cmp.compare_cli(base, change)
    assert out["a"] == {"exit": (0, 2), "key_changes": ["extra"],
                        "value_changes": ["passed", "rows[0].alpha0"], "max_gap": 0.0}
    assert out["b"]["value_changes"] == ["distance"] and out["b"]["exit"] == (3, 3)
    assert cmp.cli_failed(out) and cmp.cli_failed({"b": out["b"]})
    assert cmp.cli_failed({"a": dict(same["a"], exit=(0, 1))})
    # a command missing from the change has every key of the base only on one side
    gone = cmp.compare_cli(base, {"a": base["a"]})
    assert gone["b"]["exit"] == (3, None) and gone["b"]["key_changes"] == ["distance"]


def test_compare_searches_prints_the_refine_flow_calls_after_the_rounds():
    cmp = load_script("compare_searches")
    rows = {"a": [["converged", 1.0, 1e-6, 10], ["converged", 2.0, 2e-6, 12]]}
    line = cmp.set_line("a", cmp.compare(rows, rows)["a"], (31, 27))
    assert line.startswith("a ") and line.endswith("rounds 22/22  flow calls 31/27")


class CountingHeisenberg(models.HeisenbergModel):
    def __init__(self):
        super().__init__()
        self.points_calls = 0

    def flow_points(self, *args):
        self.points_calls += 1
        return super().flow_points(*args)


def test_compare_searches_counts_the_flow_calls_inside_the_refine(monkeypatch):
    # every closest-approach and endpoint call but the coarse scan of each pass
    cmp = load_script("compare_searches")
    counts = {"closest": 0, "passes": 0}
    closest, search_once = sr._batched_closest_approach, sr._search_once

    def counted_closest(*args):
        counts["closest"] += 1
        return closest(*args)

    def counted_search(*args):
        counts["passes"] += 1
        return search_once(*args)

    monkeypatch.setattr(sr, "_batched_closest_approach", counted_closest)
    monkeypatch.setattr(sr, "_search_once", counted_search)
    monkeypatch.setattr(sr, "_refine_candidate", sr._refine_candidate)  # undone after the test
    namespace = {}
    exec(cmp._COUNT_FLOWS, namespace)
    calls = namespace["count_refine_flows"](sr)
    model = CountingHeisenberg()
    sr.cc_distance(model, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert counts["passes"] > 0 and model.points_calls > 0
    assert calls[0] == counts["closest"] - counts["passes"] + model.points_calls
    assert "flow_points" not in vars(model)
