"""The README's examples run as written: each command of its command-line
block exits 0, and its Python blocks run on seeded draws."""

import json
import os
import re
import shlex

from click.testing import CliRunner

from recalib.cli import main
from recalib.oracle import GaussianMixtureTask, sample

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as f:
        text = f.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    block = next(b for b in fenced_blocks("") if b.startswith("recalib "))
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(c[0] == "recalib" for c in commands)

    calib = sample(GaussianMixtureTask(0.5), 2_000, 1)
    scores = sample(GaussianMixtureTask(0.5), 500, 2).z
    (tmp_path / "calib.csv").write_text(
        "z,y\n" + "".join(f"{z!r},{y}\n" for z, y in zip(calib.z.tolist(), calib.y.tolist())))
    (tmp_path / "scores.csv").write_text("z\n" + "".join(f"{z!r}\n" for z in scores.tolist()))
    for name, pi, seed in (("source.csv", 0.5, 3), ("target.csv", 0.1, 4)):
        labels = sample(GaussianMixtureTask(pi), 1_000, seed).y
        (tmp_path / name).write_text("y\n" + "".join(f"{y}\n" for y in labels.tolist()))
    (tmp_path / "grid.json").write_text(
        json.dumps({"n_grid": [1000], "B_grid": [6, 12], "seeds": 1}))

    monkeypatch.chdir(tmp_path)
    for command in commands:
        res = CliRunner().invoke(main, command[1:])
        assert res.exit_code == 0, (command, res.output, res.exception)
    assert (tmp_path / "calibrated.csv").read_text().startswith("z,z_cal\n")
    assert (tmp_path / "results" / "risk_grid.csv").exists()


def test_readme_python_blocks_run():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    source = sample(GaussianMixtureTask(0.5), 10_000, 5)
    namespace = {
        "scores": source.z,
        "labels": source.y,
        "new_scores": sample(GaussianMixtureTask(0.5), 100, 6).z,
        "source_labels": source.y,
        "target_labels": sample(GaussianMixtureTask(0.1), 1_000, 7).y,
    }
    for block in blocks:
        exec(block, namespace)
    assert namespace["calibrated"].shape == (100,)
    assert namespace["h_shifted"].inner is namespace["h"]
