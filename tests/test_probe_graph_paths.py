"""tools/probe_graph_paths.py on a panel of at most 64 images per input."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "probe_graph_paths.py"
_SPEC = importlib.util.spec_from_file_location("probe_graph_paths", _PATH)
probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probe)


def test_probe_is_deterministic_and_finds_no_qhull_error():
    lines = list(probe.lines(max_samples=64))
    assert lines == list(probe.lines(max_samples=64))
    *rows, totals = lines
    assert len(rows) == 46 * len(probe.SCALES)
    fields = dict(f.split("=") for f in totals.removeprefix("totals: ").split())
    assert fields["runs"] == str(len(rows))
    # no scale makes Qhull refuse an input; at eps_inside 0 rounding alone
    # fails some edge on most inputs
    assert fields["qhull_error"] == "0"
    assert int(fields["with_failed_at_eps0"]) > len(rows) // 2
    # an input counts toward scale_dependent_picks only when its edge set
    # is the same at every scale
    inputs = len(rows) // len(probe.SCALES)
    assert (int(fields["scale_dependent_picks"])
            <= inputs - int(fields["scale_dependent"]))
    paths = {row.split("path=")[1].split()[0] for row in rows}
    assert paths == {"delaunay", "cosphere"}
