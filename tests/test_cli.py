"""End-to-end command-line checks, run in-process through cli.main."""

import json
import subprocess
import sys

import dataclasses

import numpy as np
import pytest

from fneighbors.cli import _render, main
from fneighbors.domains import sample_sphere
from fneighbors.geometry import Sphere
from fneighbors.maps import evaluate, map_to_json, random_map
from fneighbors.neighbors import NeighborCertificate, NeighborGraph, neighbor_graph

IDENTITY_MAP = json.dumps({"family": "circle_fourier", "m_out": 2,
                           "params": [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]})


def run(*argv):
    return main(list(argv))


def test_neighbors_identity_circle(tmp_path, capsys):
    out = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"
    code = run("neighbors", "--samples", "64", "--map", IDENTITY_MAP,
               "--out", str(out), "--svg", str(svg), "--dump-certs")
    assert code == 0
    assert "D_f = 2" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["df"] == pytest.approx(2.0, abs=1e-12)
    assert doc["n_certificates"] == 1  # all samples concyclic: one tuple
    assert len(doc["certificates"]) == doc["n_certificates"]
    assert doc["config"]["samples"] == 64
    assert doc["tolerances"]["eps_inside_rel"] == 1e-6
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_neighbors_extremal_certificate_distance_is_df(tmp_path):
    # a circle map whose extremal pair distance rounds differently under a
    # second distance formula; the dumped certificate must carry D_f itself
    spec = random_map("circle_fourier", 2, seed=[9, 1000], d_in=2)
    out = tmp_path / "report.json"
    assert run("neighbors", "--samples", "512", "--seed", "1",
               "--map", map_to_json(spec), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["extremal_certificate"]["pair_distance"] == doc["df"]
    domain = sample_sphere(1, 512, seed=1, scheme="quasi_uniform")
    assert domain.rho(*doc["extremal_pair"]) == doc["df"]
    assert set(doc["extremal_pair"]) <= set(doc["extremal_certificate"]["indices"])
    assert "seed" not in doc["tolerances"]
    assert "eps_witness_rel" not in doc["tolerances"]


def test_repeat_invocation_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("neighbors", "--samples", "128", "--seed", "7",
                   "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_sphere_threads_byte_identical(tmp_path):
    a, b = tmp_path / "t1.json", tmp_path / "t8.json"
    assert run("verify-sphere", "--trials", "4", "--samples", "256",
               "--threads", "1", "--out", str(a)) == 0
    assert run("verify-sphere", "--trials", "4", "--samples", "256",
               "--threads", "8", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_sphere_csv_and_margins(tmp_path):
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    assert run("verify-sphere", "--trials", "3", "--samples", "512",
               "--out", str(out), "--csv", str(csv_path)) == 0
    doc = json.loads(out.read_text())
    assert doc["all_ok"]
    assert doc["result"]["min_margin"] > -0.05
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,df,allowance,margin,n_certificates"
    assert len(lines) == 4


def test_verify_sphere_coincidence_regime(tmp_path):
    out = tmp_path / "bu.json"
    assert run("verify-sphere", "--n", "1", "--m-out", "1", "--trials", "3",
               "--samples", "512", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    for row in doc["result"]["trials"]:
        assert row["rho"] == pytest.approx(2.0, abs=1e-12)


def test_verify_cube(tmp_path):
    out = tmp_path / "vc.json"
    assert run("verify-cube", "--trials", "2", "--samples", "512",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["all_ok"]
    for row in doc["result"]["trials"]:
        assert row["faces"][0].startswith("min-face-")
        assert row["faces"][1].startswith("max-face-")
        assert row["lp_verdict"] == "yes"


def test_witness_identity_sphere(tmp_path):
    out = tmp_path / "w.json"
    code = run("witness", "--domain", "sphere", "--n", "2", "--samples",
               "300", "--map",
               json.dumps({"family": "identity_embed", "m_out": 3,
                           "params": []}),
               "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"]
    assert doc["result"]["radius"] == pytest.approx(1.0, abs=1e-6)
    assert max(abs(v) for v in doc["result"]["point"]) < 1e-6


def test_witness_not_found_exits_1(tmp_path, capsys):
    # four cover elements with 2-D images: this seed's best circumcenter
    # is far above the default gate
    out = tmp_path / "w.json"
    code = run("witness", "--domain", "sphere", "--n", "2", "--m-out", "2",
               "--samples", "512", "--seed", "2", "--out", str(out))
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert doc["result"]["status"] == "no-witness-found"


def test_degree_circle(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("degree", "--samples", "512", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["verdict"] == "non_null_homotopic"
    assert abs(doc["result"]["degree"]) == 1
    assert "verdict = non_null_homotopic" in capsys.readouterr().out


def test_delta_sweep_csv(tmp_path):
    out, csv_path = tmp_path / "h.json", tmp_path / "h.csv"
    assert run("delta-sweep", "--samples", "256", "--bins", "8",
               "--map", IDENTITY_MAP, "--out", str(out),
               "--csv", str(csv_path)) == 0
    doc = json.loads(out.read_text())
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in rows) == doc["result"]["n_pairs"]
    assert doc["result"]["n_pairs"] == 256 * 255 // 2


def test_mu_small_budget(tmp_path):
    out, svg = tmp_path / "m.json", tmp_path / "m.svg"
    assert run("mu", "--samples", "128", "--restarts", "2", "--budget", "60",
               "--probes", "8", "--out", str(out), "--svg", str(svg)) == 0
    doc = json.loads(out.read_text())
    res = doc["result"]
    assert res["lower_bound"] == pytest.approx(3 ** 0.5)
    assert res["best_df"] >= res["lower_bound"] - 0.05
    assert svg.read_text().startswith("<svg")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 256, "seed": 3}))
    out = tmp_path / "o.json"
    assert run("neighbors", "--config", str(cfg), "--samples", "128",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["samples"] == 128  # flag beats config file
    assert doc["config"]["seed"] == 3       # config beats default


def test_map_file_equivalent_to_inline(tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(IDENTITY_MAP)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("neighbors", "--samples", "64", "--map", IDENTITY_MAP,
               "--out", str(a)) == 0
    assert run("neighbors", "--samples", "64", "--map", str(map_file),
               "--out", str(b)) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["df"] == db["df"]
    assert da["map"] == db["map"]


def test_usage_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_flag": 1}))
    assert run("neighbors", "--config", str(bad)) == 2
    assert run("neighbors", "--domain", "cube", "--n", "2",
               "--svg", str(tmp_path / "x.svg")) == 2
    assert run("neighbors", "--map", "{broken json") == 2
    assert run("verify-sphere", "--n", "2", "--m-out", "1") == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fneighbors", "neighbors", "--samples", "64",
         "--map", IDENTITY_MAP],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "D_f = 2" in proc.stdout


# --- --dump-certs rendering: byte-identical to json.dumps of the rows ---

def _assert_renders_like_json(graph):
    report = {"command": "neighbors", "certificates": graph, "df": 2.0,
              "tolerances": {"eps_inside_rel": 1e-6}}
    rows = [c.to_json() for c in graph]
    expected = json.dumps({**report, "certificates": rows}, sort_keys=True,
                          indent=2) + "\n"
    assert _render(report) == expected


def test_dump_renders_delaunay_sphere_graph():
    domain = sample_sphere(2, 512, seed=1, scheme="quasi_uniform")
    spec = random_map("sphere_harmonic", 3, seed=[1, 1000], d_in=3)
    graph = neighbor_graph(evaluate(spec, domain), domain)
    assert len(graph.pairs) > 1000 and not graph.tuples
    _assert_renders_like_json(graph)


def test_dump_renders_line_graph():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    spec = random_map("circle_fourier", 1, seed=[0, 11], d_in=2)
    graph = neighbor_graph(evaluate(spec, domain), domain)
    assert graph.centers.shape[1] == 1
    _assert_renders_like_json(graph)


def test_dump_renders_coincidence_rows_and_tuples():
    # rounded images coincide in clusters (coincidence tuples); NaN centers
    # on every fifth pair row make radius-0 coincidence rows
    domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
    spec = random_map("circle_fourier", 2, seed=[0, 5], d_in=2)
    graph = neighbor_graph(np.round(evaluate(spec, domain), 2), domain)
    assert graph.tuples
    centers = graph.centers.copy()
    centers[::5] = np.nan
    graph = dataclasses.replace(graph, centers=centers)
    assert sum(c.witness == "coincidence" for c in graph) > len(graph.tuples)
    _assert_renders_like_json(graph)


def test_dump_renders_all_sample_cosphere_tuple():
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    graph = neighbor_graph(domain.samples.copy(), domain)
    assert len(graph.pairs) == 0 and len(graph.tuples) == 1
    _assert_renders_like_json(graph)


def test_dump_renders_empty_graph():
    empty = NeighborGraph(pairs=np.zeros((0, 2), dtype=int),
                          centers=np.zeros((0, 3)), radii=np.zeros(0),
                          slack=np.zeros(0), rho=np.zeros(0))
    _assert_renders_like_json(empty)


def test_dump_renders_non_finite_floats_and_tuple_ties():
    # json spells these NaN, Infinity and -Infinity; a tuple sorts after
    # the pair rows it shares a key prefix with, and after an equal pair.
    # The second center column prints both -0.0 and 0.0, and the radii,
    # rho and slack columns repeat values
    pairs = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]])
    graph = NeighborGraph(
        pairs=pairs, centers=np.array([[0.5, -0.0], [np.nan, np.nan],
                                       [1e-300, 2.5e17], [0.1, 0.2],
                                       [-0.0, 0.0]]),
        radii=np.array([0.5, 0.0, 1.0, 1 / 3, 0.5]),
        slack=np.array([np.inf, np.nan, -np.inf, -1e-12, -np.inf]),
        rho=np.array([0.25, 2.0, 1.0, 0.1 + 0.2, 0.25]),
        tuples=(NeighborCertificate((0, 1, 2), "coincidence", 0.0, 2.0),
                NeighborCertificate((1, 3), Sphere(np.array([3.0, 4.0]), 5.0),
                                    float("nan"), 1.5)),
        tuple_pairs=((0, 2), (1, 3)))
    assert [c.indices for c in graph] == [(0, 1), (0, 1, 2), (0, 2), (1, 3),
                                          (1, 3), (2, 3), (3, 4)]
    _assert_renders_like_json(graph)
