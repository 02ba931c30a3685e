"""tools/dump_panel.py on a panel of at most 64 samples per input."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "dump_panel.py"
_SPEC = importlib.util.spec_from_file_location("dump_panel", _PATH)
dump_panel = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_panel)


def test_dump_panel_is_deterministic(tmp_path):
    for side in ("a", "b"):
        dump_panel.write_panel(tmp_path / side, max_samples=64)
    sums = (tmp_path / "a" / "SHA256SUMS").read_text()
    assert sums == (tmp_path / "b" / "SHA256SUMS").read_text()
    names = [line.split("  ")[1] for line in sums.splitlines()]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
        [*names, "SHA256SUMS"])
    assert len(names) == len(list(dump_panel.panel(64)))


def test_dump_panel_refuses_a_graph_that_fails_its_check(tmp_path,
                                                         monkeypatch):
    def fail_last(graph, images, domain):
        verdict = np.ones(len(graph), dtype=bool)
        verdict[-1] = False
        return verdict

    monkeypatch.setattr(dump_panel, "check_graph", fail_last)
    name = next(dump_panel.panel(64))[0]
    with pytest.raises(SystemExit, match=f"^{name}: 1 of "):
        dump_panel.write_panel(tmp_path, max_samples=64)
    assert not list(tmp_path.iterdir())
