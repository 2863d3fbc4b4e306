"""scripts/bench_json.py, the one writer of the BENCH_*.json trajectory."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_json():
    spec = importlib.util.spec_from_file_location(
        "bench_json", os.path.join(ROOT, "scripts", "bench_json.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["end_to_end"]]


def _record(seed, value):
    return {
        "workload": "library", "seed": seed, "seconds": 20.0, "trace": 0, "correct": True,
        "environment": {"git_commit": "0" * 40, "python": "3.11.7", "numpy": "2.4.6",
                        "scipy": "1.17.1", "click": "8.1.7", "nproc": 2},
        "metrics": {m: {"value": value, "unit": "s"} for m in _metric_names()},
    }


def _keys(obj):
    """The nested key structure of a summary, without its values."""
    if isinstance(obj, dict):
        return {k: _keys(v) for k, v in obj.items()}
    return None


def test_summary_of_two_records_has_the_trajectory_keys(bench_json):
    with open(os.path.join(ROOT, "BENCH_pr18.json")) as f:
        reference = json.load(f)["workloads"]["library"]
    got = bench_json.summarize([_record(2, 1.5), _record(1, 0.5)], _metric_names())
    assert _keys(got["library"]) == _keys(reference)
    assert got["library"]["seeds"] == [1, 2]
    assert got["library"]["metrics"]["wall_s"]["values"] == [0.5, 1.5]


def test_one_record_is_refused_without_writing_a_file(bench_json, tmp_path, monkeypatch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    record = tmp_path / "library-seed1-trace0.json"
    record.write_text(json.dumps(_record(1, 0.5)))
    monkeypatch.setattr(bench_json, "ROOT", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["bench_json.py", "single", str(record)])
    with pytest.raises(SystemExit) as exc:
        bench_json.main()
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("error: ") and "\n" not in message
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", record.name]
