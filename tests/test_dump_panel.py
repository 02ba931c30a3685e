"""tools/dump_panel.py on a panel of at most 64 samples per input."""

import importlib.util
from pathlib import Path

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
