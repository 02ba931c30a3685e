"""End-to-end command-line checks, run in-process through cli.main."""

import json
import subprocess
import sys
import tracemalloc
import warnings

import dataclasses

import numpy as np
import pytest

from fneighbors import cli, muopt, neighbors
from fneighbors.cli import _report_pieces, main
from fneighbors.domains import sample_sphere
from fneighbors.geometry import Sphere
from fneighbors.maps import evaluate, map_from_json, map_to_json, random_map
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


def test_verify_sphere_three_sphere_default_family(tmp_path):
    # S^3 into R^4: the default family is poly_quadratic, and the
    # triangulation is 4-D
    a, b = tmp_path / "t1.json", tmp_path / "t2.json"
    for threads, path in (("1", a), ("2", b)):
        assert run("verify-sphere", "--n", "3", "--m-out", "4", "--trials",
                   "2", "--samples", "256", "--threads", threads,
                   "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    for trial in doc["result"]["trials"]:
        assert json.loads(trial["map"])["family"] == "poly_quadratic"


def test_mu_three_sphere_default_family(tmp_path):
    out = tmp_path / "m.json"
    assert run("mu", "--n", "3", "--samples", "128", "--restarts", "1",
               "--budget", "20", "--probes", "2", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert json.loads(doc["result"]["best_map"])["family"] == "poly_quadratic"


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


@pytest.mark.parametrize("flags", [("--probes", "0"),
                                   ("--probes", "0", "--restarts", "0"),
                                   ("--probes", "-2"), ("--restarts", "-1"),
                                   ("--budget", "-1")])
def test_mu_rejects_bad_search_sizes(flags, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run("mu", "--samples", "64", *flags, "--out", str(out)) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--samples", "0"), ("--samples", "-5"),
                                   ("--n", "0")])
@pytest.mark.parametrize("command", list(cli.DEFAULTS))
def test_counts_below_one_are_usage_errors(command, flags, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(command, *flags, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{flags[0]} must be at least 1" in err


@pytest.mark.parametrize("args", [
    ("mu", "--m-out", "0"), ("verify-sphere", "--m-out", "0"),
    ("mu", "--family", "nope"), ("verify-sphere", "--family", "nope"),
    ("mu", "--degree", "-2"), ("neighbors", "--degree", "-1"),
    ("neighbors", "--domain", "cube", "--n", "1"),
    ("neighbors", "--domain", "simplex", "--n", "1"),
    ("witness", "--domain", "cube", "--n", "1"), ("verify-cube", "--n", "1"),
    ("degree", "--r-thick", "0"), ("degree", "--r-thick", "-1"),
    ("delta-sweep", "--bins", "-3"), ("delta-sweep", "--bins", "0"),
    ("mu", "--scale", "-1"), ("mu", "--seed", "-1"),
    ("verify-sphere", "--threads", "0"),
    # numpy's uniform draw on [-scale, scale) needs a finite 2 * scale
    ("neighbors", "--scale", "inf"), ("mu", "--scale", "inf"),
    ("witness", "--scale", "inf"), ("delta-sweep", "--scale", "1e308"),
    ("degree", "--r-thick", "inf"),
    # a NaN image would put every sample in one coincidence cluster
    ("neighbors", "--map",
     '{"family": "constant", "m_out": 2, "params": [NaN, 1]}'),
    # finite images whose squared diameter overflows
    ("neighbors", "--scale", "1e160"), ("mu", "--scale", "1e160"),
    ("witness", "--scale", "1e160"), ("delta-sweep", "--scale", "1e160"),
    # images whose diameter is no normal float
    ("neighbors", "--scale", "1e-310"), ("witness", "--scale", "1e-310")])
def test_bad_values_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(*args, "--samples", "64", "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")


def _certificate_indices(tmp_path, scale):
    """The report and certificate indices of neighbors --samples 64 at
    --scale scale, with no RuntimeWarning raised."""
    out = tmp_path / f"r-{scale}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("neighbors", "--samples", "64", "--scale", scale,
                   "--dump-certs", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    return report, [c["indices"] for c in report["certificates"]]


def test_images_near_the_overflow_limit_give_only_finite_certificates(
        tmp_path):
    # Qhull refused these images (every pair then went to the LP, and 3
    # LP centers overflowed); in the unit frame they give scale 1's
    # Delaunay certificates, scaled
    report, indices = _certificate_indices(tmp_path, "1e150")
    assert report["df"] == 2.0
    assert indices == _certificate_indices(tmp_path, "1")[1]
    assert len(indices) == report["n_certificates"] == 164
    for cert in report["certificates"]:
        w = cert["witness"]
        numbers = [cert["slack"], w["radius"], *w["center"]]
        assert np.isfinite(numbers).all()


@pytest.mark.parametrize("scale", ["1e-300", "1e-165", "1e-160", "1e-150",
                                   "1e-13", "1e80"])
def test_neighbors_lists_scale_1_certificates_at_any_scale(tmp_path, scale):
    # below a diameter of 1e-6 a floor on tau_on made the images
    # cospherical (one all-sample tuple), below about 2e-162 the squared
    # diameter underflowed to 0 (one coincidence tuple), and past about
    # 1e80 Qhull refused them; below about 1e-154 check_certificate's
    # squared margins underflowed, and it failed most certificates
    report, indices = _certificate_indices(tmp_path, scale)
    assert indices == _certificate_indices(tmp_path, "1")[1]
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    images = evaluate(map_from_json(json.dumps(report["map"])), domain)
    for doc in report["certificates"]:
        w = doc["witness"]
        cert = NeighborCertificate(
            indices=tuple(doc["indices"]), slack=doc["slack"],
            witness=Sphere(center=np.array(w["center"]), radius=w["radius"]),
            pair_distance=doc["pair_distance"])
        assert neighbors.check_certificate(cert, images, domain)


def test_sphere_map_into_r3_near_the_overflow_limit_runs():
    # Qhull crashed the process (SIGSEGV) on these reduced images; in a
    # separate process, so that a crash fails this test only
    proc = subprocess.run(
        [sys.executable, "-m", "fneighbors", "neighbors", "--n", "2",
         "--m-out", "3", "--samples", "256", "--scale", "1e150"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "D_f = 2" in proc.stdout


@pytest.mark.parametrize("scale", ["1", "1e100"])
def test_witness_contacts_do_not_depend_on_the_scale(tmp_path, scale):
    # at 1e100 Qhull refused the images, which left only the images as
    # candidates and ended in no-witness-found
    out = tmp_path / "w.json"
    assert run("witness", "--domain", "sphere", "--n", "2", "--samples",
               "512", "--scale", scale, "--out", str(out)) == 0
    result = json.loads(out.read_text())["result"]
    assert result["status"] == "ok"
    assert result["chosen"] == [406, 209, 313, 204]


AFFINE_ONE_PARAM = json.dumps({"family": "affine", "m_out": 2, "params": [1]})


@pytest.mark.parametrize("args", [
    ("neighbors", "--n", "2", "--family", "circle_fourier"),
    ("mu", "--n", "2", "--family", "circle_fourier"),
    ("verify-sphere", "--n", "2", "--m-out", "3", "--family", "circle_fourier"),
    ("witness", "--family", "sphere_harmonic"),
    ("neighbors", "--family", "identity_embed", "--m-out", "1"),
    ("neighbors", "--map", AFFINE_ONE_PARAM),
    ("witness", "--map", AFFINE_ONE_PARAM),
    ("mu", "--family", "identity_embed")])
def test_maps_that_do_not_fit_the_domain_are_usage_errors(args, tmp_path,
                                                          capsys):
    # maps.check_fit's rule, read before any work starts
    out = tmp_path / "r.json"
    assert run(*args, "--samples", "64", "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")


@pytest.mark.parametrize("option", [("--family", "sphere_harmonic"),
                                    ("--family", "identity_embed"),
                                    ("--scheme", "uniform_random")])
def test_coincidence_sweep_rejects_settings_it_does_not_use(option, tmp_path,
                                                            capsys):
    # verify_borsuk_ulam always draws circle_fourier maps on quasi_uniform
    # samples, so another family or scheme would be recorded but not run
    out = tmp_path / "r.json"
    assert run("verify-sphere", "--n", "1", "--m-out", "1", "--samples", "64",
               "--trials", "2", *option, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    assert "circle_fourier maps on quasi_uniform samples" in err


def test_coincidence_sweep_takes_its_own_family_and_scheme(tmp_path):
    out = tmp_path / "r.json"
    assert run("verify-sphere", "--n", "1", "--m-out", "1", "--samples", "64",
               "--trials", "2", "--family", "circle_fourier", "--scheme",
               "quasi_uniform", "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["family"] == "circle_fourier"


@pytest.mark.parametrize("args", [("witness", "--samples", "1"),
                                  ("degree", "--samples", "2")])
def test_covers_with_an_empty_element_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(*args, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "cover has an empty element" in err


@pytest.mark.parametrize("doc, message", [
    ({"samples": "abc"}, "--samples must be an integer, not 'abc'"),
    ({"eps_inside": "tiny"}, "--eps-inside must be a number, not 'tiny'"),
    ({"m_out": "x"}, "--m-out must be an integer, not 'x'")])
def test_non_numeric_config_values_are_usage_errors(doc, message, tmp_path,
                                                    capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    assert run("neighbors", "--config", str(config)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("neighbors", "--eps-inside"),
    ("verify-sphere", "--trials", "1", "--eps-inside"),
    ("mu", "--probes", "2", "--restarts", "0", "--eps-inside"),
    ("witness", "--n", "2", "--eps-witness"),
    ("verify-cube", "--trials", "1", "--eps-witness")])
def test_negative_tolerances_are_usage_errors(args, tmp_path, capsys):
    # a negative tolerance certifies nothing, which read as D_f = 0, as a
    # counterexample to the bound, or as a failed witness
    *command, flag = args
    out = tmp_path / "r.json"
    base = [*command, "--samples", "64", "--out", str(out)]
    assert run(*base, flag, "-1") == 2
    assert not out.exists()
    assert f"{flag} must be at least 0.0" in capsys.readouterr().err
    # an infinite tolerance accepts every ball or every residual
    assert run(*base, flag, "inf") == 2
    assert not out.exists()
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert run(*base, flag, "0") in (0, 1)
    assert out.exists()


@pytest.mark.parametrize("argv, entry, flags", [
    (["neighbors", "--samples", "64"], "neighbor_graph",
     {"eps_inside": 0.25}),
    (["verify-sphere", "--trials", "1", "--samples", "64"],
     "verify_sphere_bound", {"eps_inside": 0.25}),
    (["verify-cube", "--trials", "1", "--samples", "256"],
     "verify_cube_faces", {"eps_inside": 0.25, "eps_witness": 0.125}),
    (["mu", "--samples", "64", "--probes", "1", "--restarts", "0"],
     "estimate_mu", {"eps_inside": 0.25}),
    (["witness", "--samples", "64"], "witness_point", {"eps_witness": 0.125}),
    (["delta-sweep", "--samples", "64", "--bins", "4"], "delta_sweep",
     {"eps_inside": 0.25}),
])
def test_each_tolerance_flag_reaches_the_library(argv, entry, flags, tmp_path,
                                                 monkeypatch):
    # on generic inputs most tolerance values print the same results, so
    # the value the library entry point receives is checked directly
    received = {}
    original = getattr(cli, entry)

    def record(*args, **kwargs):
        received.update(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, entry, record)
    values = [v for key, value in flags.items()
              for v in ("--" + key.replace("_", "-"), str(value))]
    assert run(*argv, *values, "--out", str(tmp_path / "r.json")) in (0, 1)
    assert {key: received[key + "_rel"] for key in flags} == flags


def test_verify_sphere_without_trials_reports_no_margin(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run("verify-sphere", "--trials", "0", "--samples", "64",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["result"]["min_margin"] is None
    printed = capsys.readouterr().out
    assert "0 trials; all consistent: True" in printed
    assert "margin" not in printed


@pytest.mark.parametrize("command, flags", [
    ("verify-sphere", ()), ("verify-sphere", ("--m-out", "1")),
    ("verify-cube", ())])
def test_trial_counts(command, flags, tmp_path, capsys):
    out = tmp_path / "r.json"
    base = [command, *flags, "--samples", "64", "--out", str(out)]
    assert run(*base, "--trials", "-1") == 2
    assert not out.exists()
    assert "--trials must be at least 0" in capsys.readouterr().err
    # no trials: an empty, consistent sweep with no largest value
    assert run(*base, "--trials", "0") == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["trials"] == [] and doc["all_ok"] is True
    printed = capsys.readouterr().out
    assert " 0 trials" in printed and "max" not in printed


def test_verify_sphere_s2_threads_byte_identical(tmp_path):
    # S^2 maps share the domain's cached quadratic basis across trial threads
    a, b = tmp_path / "t1.json", tmp_path / "t2.json"
    for threads, path in (("1", a), ("2", b)):
        assert run("verify-sphere", "--n", "2", "--m-out", "3", "--trials",
                   "4", "--samples", "512", "--threads", threads,
                   "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fneighbors", "neighbors", "--samples", "64",
         "--map", IDENTITY_MAP],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "D_f = 2" in proc.stdout


# --- start-up footprint: no run loads scipy.optimize, csgraph only where used

_FOOTPRINT = """
import contextlib, io, json, os, sys
from fneighbors import cli

def loaded():
    return [m for m in ("scipy.optimize", "scipy.sparse.csgraph")
            if m in sys.modules]

steps = [("import", loaded())]
for args in (["neighbors", "--n", "2", "--samples", "256", "--dump-certs"],
             ["verify-sphere", "--n", "2", "--m-out", "3", "--trials", "1",
              "--samples", "256"],
             ["verify-cube", "--n", "2", "--trials", "2", "--samples", "512"],
             ["verify-cube", "--n", "3", "--trials", "1", "--samples", "512"],
             ["witness", "--n", "2", "--m-out", "3", "--samples", "300"],
             ["degree", "--domain", "cube", "--n", "2", "--samples", "256"],
             ["degree", "--domain", "sphere", "--n", "2", "--samples", "256"],
             ["delta-sweep", "--n", "1", "--samples", "128"],
             ["mu", "--samples", "64", "--probes", "1", "--restarts", "1",
              "--budget", "20"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*args, "--out", os.devnull])
    steps.append((args[0], code, loaded()))
print(json.dumps(steps))
"""


def test_no_cli_run_loads_scipy_optimize_or_csgraph():
    # verify-cube's LP cross-check runs linprog's own dual simplex, so
    # only min_enclosing_ball_angular's nnls still needs scipy.optimize
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps == [["import", []], ["neighbors", 0, []],
                     ["verify-sphere", 0, []], ["verify-cube", 0, []],
                     ["verify-cube", 0, []], ["witness", 0, []],
                     ["degree", 0, []], ["degree", 0, []],
                     ["delta-sweep", 0, []], ["mu", 0, []]]


def test_lp_and_nelder_mead_calls_go_through_module_attributes(monkeypatch,
                                                               tmp_path):
    # the span tracer wraps neighbors.linprog and muopt.minimize by attribute
    calls = []
    for mod, name in ((neighbors, "linprog"), (muopt, "minimize")):
        original = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    images = np.random.default_rng(3).normal(size=(12, 3))
    verdict, _ = neighbors.pair_is_neighbor_fast(0, 1, images)
    assert verdict in ("yes", "no") and calls == ["linprog"]
    assert run("mu", "--samples", "64", "--probes", "1", "--restarts", "2",
               "--budget", "5", "--out", str(tmp_path / "m.json")) == 0
    assert calls == ["linprog", "minimize", "minimize"]


# --- --dump-certs rendering: byte-identical to json.dumps of the rows ---

def _tuples(members, ball, slack, rho, pairs=None):
    """NeighborGraph's tuple columns for the ascending member lists
    members, in indices order; each tuple's pair is its first two members
    unless pairs gives them."""
    sizes = [len(m) for m in members]
    return {"tuple_members": np.concatenate(members),
            "tuple_start": np.cumsum([0, *sizes[:-1]]),
            "tuple_ball": np.array(ball), "tuple_slack": np.array(slack),
            "tuple_rho": np.array(rho),
            "tuple_pairs": np.array(pairs or [m[:2] for m in members])}


def _assert_renders_like_json(graph):
    report = {"command": "neighbors", "certificates": graph, "df": 2.0,
              "tolerances": {"eps_inside_rel": 1e-6}}
    rows = [c.to_json() for c in graph]
    expected = json.dumps({**report, "certificates": rows}, sort_keys=True,
                          indent=2) + "\n"
    assert "".join(_report_pieces(report)) == expected


def test_dump_renders_delaunay_sphere_graph():
    domain = sample_sphere(2, 512, seed=1, scheme="quasi_uniform")
    spec = random_map("sphere_harmonic", 3, seed=[1, 1000], d_in=3)
    graph = neighbor_graph(evaluate(spec, domain), domain)
    assert len(graph.pairs) > 1000 and not len(graph.tuple_start)
    _assert_renders_like_json(graph)


def test_dump_renders_line_graph():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    spec = random_map("circle_fourier", 1, seed=[0, 11], d_in=2)
    graph = neighbor_graph(evaluate(spec, domain), domain)
    assert graph.centers.shape[1] == 1
    _assert_renders_like_json(graph)


def test_dump_renders_coincidence_rows_and_tuples():
    # rounded images coincide in clusters (coincidence tuples) and lie on
    # cospherical cells (sphere tuples); ball -1 on every fifth pair row
    # makes radius-0 coincidence rows.  Counted: rows, tuples, sphere tuples
    for n, domain_seed, seed, decimals, counts in [
            (1, 0, [0, 5], 2, (1502, 18, 10)),
            (2, 1, [1, 1000], 1, (8766, 1056, 891))]:
        domain = sample_sphere(n, 512 * n, seed=domain_seed,
                               scheme="quasi_uniform")
        family = "sphere_harmonic" if n == 2 else "circle_fourier"
        spec = random_map(family, n + 1, seed=seed, d_in=n + 1)
        graph = neighbor_graph(np.round(evaluate(spec, domain), decimals),
                               domain)
        tuples = len(graph.tuple_start)
        assert (len(graph.pairs), tuples,
                int((graph.tuple_ball >= 0).sum())) == counts
        ball = graph.ball.copy()
        ball[::5] = -1
        graph = dataclasses.replace(graph, ball=ball)
        assert sum(c.witness == "coincidence" for c in graph) > tuples
        _assert_renders_like_json(graph)


def test_dump_renders_all_sample_cosphere_tuple():
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    graph = neighbor_graph(domain.samples.copy(), domain)
    assert len(graph.pairs) == 0 and len(graph.tuple_start) == 1
    _assert_renders_like_json(graph)


def test_dump_renders_empty_graph():
    empty = NeighborGraph(pairs=np.zeros((0, 2), dtype=int),
                          ball=np.zeros(0, dtype=int), slack=np.zeros(0),
                          rho=np.zeros(0), centers=np.zeros((0, 3)),
                          radii=np.zeros(0))
    _assert_renders_like_json(empty)


def test_dump_renders_non_finite_floats_and_tuple_ties():
    # json spells these NaN, Infinity and -Infinity; a tuple sorts after
    # the pair rows it shares a key prefix with, and after an equal pair.
    # The second center column prints both -0.0 and 0.0, and the radii,
    # rho and slack columns repeat values
    pairs = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]])
    graph = NeighborGraph(
        pairs=pairs, ball=np.array([0, -1, 1, 2, 3]),
        centers=np.array([[0.5, -0.0], [1e-300, 2.5e17], [0.1, 0.2],
                          [-0.0, 0.0], [3.0, 4.0]]),
        radii=np.array([0.5, 1.0, 1 / 3, 0.5, 5.0]),
        slack=np.array([np.inf, np.nan, -np.inf, -1e-12, -np.inf]),
        rho=np.array([0.25, 2.0, 1.0, 0.1 + 0.2, 0.25]),
        **_tuples([(0, 1, 2), (1, 3)], ball=[-1, 4], slack=[0.0, np.nan],
                  rho=[2.0, 1.5], pairs=[(0, 2), (1, 3)]))
    assert [c.indices for c in graph] == [(0, 1), (0, 1, 2), (0, 2), (1, 3),
                                          (1, 3), (2, 3), (3, 4)]
    _assert_renders_like_json(graph)


# --- the chunked writer: pieces of at most CHUNK_ROWS pair rows ---

def _row_pieces(report):
    """The certificate pieces of a dumped report, each parsed as a list."""
    pieces = list(_report_pieces(report))
    assert pieces[0].endswith('"certificates": ') and pieces[-2] == "\n  ]"
    return [json.loads("[" + p[2:] + "]") for p in pieces[1:-2]]


def _ladder_graph(n_pairs, **tuples):
    """Pairs (k, k + 2), k = 1..n_pairs, whose balls repeat every third
    row, so that rows share spellings, and the tuple columns tuples."""
    rng = np.random.default_rng(n_pairs)
    balls = rng.normal(size=(3, 4))
    return NeighborGraph(
        pairs=np.column_stack([np.arange(1, n_pairs + 1),
                               np.arange(3, n_pairs + 3)]),
        ball=np.arange(n_pairs) % 3,
        centers=balls[:, :3], radii=np.abs(balls[:, 3]),
        slack=np.round(rng.uniform(size=n_pairs), 1),
        rho=rng.uniform(size=n_pairs), **tuples)


def test_dump_pieces_exact_multiple_with_tuples_on_the_boundaries(monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 4)
    # 12 pairs (1, 3) .. (12, 14); the tuples sort before row 0, exactly at
    # rows 4 and 8 (the piece boundaries), and after the last row
    graph = _ladder_graph(12, **_tuples(
        [(0, 1, 2), (4, 7, 8), (8, 11, 12), (13, 14, 15)], ball=[-1] * 4,
        slack=[0.0] * 4, rho=[1.0] * 4))
    assert graph.tuple_positions().tolist() == [0, 4, 8, 12]
    _assert_renders_like_json(graph)
    pieces = _row_pieces({"certificates": graph})
    assert [sum(len(c["indices"]) == 2 for c in p) for p in pieces] == [4, 4, 4]
    # a tuple on a boundary ends the piece before it
    assert [len(p) for p in pieces] == [6, 5, 5]
    assert [c for p in pieces for c in p] == [c.to_json() for c in graph]


@pytest.mark.parametrize("n_pairs", [1, 3, 4, 5, 9])
def test_dump_pieces_hold_at_most_chunk_rows(monkeypatch, n_pairs):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 4)
    graph = _ladder_graph(n_pairs)
    _assert_renders_like_json(graph)
    sizes = [len(p) for p in _row_pieces({"certificates": graph})]
    assert sizes == [4] * (n_pairs // 4) + [n_pairs % 4] * (n_pairs % 4 > 0)


def test_dump_pieces_tuples_only(monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 1)
    graph = dataclasses.replace(
        _ladder_graph(0), centers=np.array([[1.0, -0.0]]),
        radii=np.array([2.0]),
        **_tuples([(0, 1, 2), (3, 4), (5, 6, 7)], ball=[-1, 0, -1],
                  slack=[0.0, 0.5, 0.25], rho=[1.0, 1.5, 0.5]))
    _assert_renders_like_json(graph)
    assert [len(p) for p in _row_pieces({"certificates": graph})] == [3]


def test_dump_balls_apart_only_by_the_sign_of_zero_keep_both_spellings():
    pairs = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
    graph = NeighborGraph(
        pairs=pairs, ball=np.array([0, 1, 0, 2]),
        centers=np.array([[0.0, 1.5], [-0.0, 1.5], [0.25, -0.0]]),
        radii=np.array([2.0, 2.0, -0.0]), slack=np.zeros(4),
        rho=np.array([0.5, 0.5, 0.0, -0.0]))
    _assert_renders_like_json(graph)
    rows = _row_pieces({"certificates": graph})[0]
    centers = [json.dumps(c["witness"]["center"]) for c in rows]
    assert centers[:3] == ["[0.0, 1.5]", "[-0.0, 1.5]", "[0.0, 1.5]"]


def test_dump_certs_to_stdout_matches_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 400)
    args = ["neighbors", "--domain", "sphere", "--n", "2", "--samples", "512",
            "--seed", "3", "--dump-certs"]
    out = tmp_path / "r.json"
    assert run(*args, "--out", str(out)) == 0
    summary = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == summary + out.read_text()
    assert len(json.loads(out.read_text())["certificates"]) > 3 * cli.CHUNK_ROWS


# --- the working memory of the S^2 certificate path ---

def _traced_peak(f, *args):
    """f(*args) and the peak of the memory tracemalloc traces during the
    call, above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _s2_dump_input():
    domain = sample_sphere(2, 2048, seed=1, scheme="quasi_uniform")
    images = evaluate(random_map("sphere_harmonic", 3, seed=[1, 1], d_in=3),
                      domain)
    return domain, images


def test_edge_pass_working_memory_per_edge_instance():
    # a few instance-length arrays at once, 8 bytes per float and 4 per
    # index: measured 33-34 bytes per instance on S^2 maps [1, 0..3] and
    # [1, 1000] at 2048 samples; the margin is less than one more float
    # array per instance
    _, images = _s2_dump_input()
    cl = neighbors._clusters(images)
    tri = neighbors._triangulation(cl)
    eps = neighbors.EPS_INSIDE_REL * cl.diam
    instances = 6 * len(neighbors._circumballs(cl.reduced, tri, cl.tau_on)[0])
    _, peak = _traced_peak(neighbors._delaunay_edge_certs, cl.reduced, tri,
                           eps, cl.tau_on)
    assert peak <= 40 * instances


def test_dump_writer_working_memory_per_pair_row():
    # measured 180-193 bytes per pair row on the maps above; the budget
    # adds a fifth.  Spelling every distinct ball's floats at once and
    # keeping each ball's whole witness text took 496-552 on these maps
    domain, images = _s2_dump_input()
    graph = neighbor_graph(images, domain)

    def render():
        for _ in _report_pieces({"certificates": graph}):
            pass

    _, peak = _traced_peak(render)
    assert peak <= 230 * len(graph.pairs)


def test_parser_is_built_once_and_reused_across_subcommands(tmp_path):
    # in one process: neighbors, then degree, then neighbors again; each
    # report must match a fresh process's
    calls = [("a.json", ["neighbors", "--samples", "128", "--seed", "5",
                         "--dump-certs"]),
             ("b.json", ["degree", "--samples", "256"]),
             ("c.json", ["neighbors", "--samples", "64", "--map", IDENTITY_MAP])]
    for name, args in calls:
        assert run(*args, "--out", str(tmp_path / name)) == 0
    assert cli._build_parser() is cli._build_parser()
    for name, args in calls:
        fresh = tmp_path / f"fresh-{name}"
        proc = subprocess.run([sys.executable, "-m", "fneighbors", *args,
                               "--out", str(fresh)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert fresh.read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("cmd", sorted(cli.DEFAULTS))
def test_every_subcommand_help_exits_0(cmd, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([cmd, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fneighbors {cmd}")
    # one flag per DEFAULTS key, plus --config
    args = vars(cli._build_parser().parse_args([cmd]))
    assert set(args) == {*cli.DEFAULTS[cmd], "config", "cmd"}


# --- every report embeds the full tolerance set at its defaults ---

NEIGHBOR_TOLERANCES = {"eps_coincide_rel": 1e-9, "eps_inside_rel": 1e-6,
                       "tau_on_rel": 1e-6}


@pytest.mark.parametrize("argv, extra", [
    (["neighbors", "--samples", "64"], {}),
    (["verify-sphere", "--trials", "1", "--samples", "128"], {}),
    (["verify-cube", "--trials", "1", "--samples", "256"],
     {"eps_witness_rel": 1e-3}),
    (["mu", "--samples", "64", "--probes", "1", "--restarts", "0"], {}),
    (["delta-sweep", "--samples", "64", "--bins", "4"], {}),
])
def test_reports_carry_every_tolerance_at_its_default(tmp_path, argv, extra):
    out = tmp_path / "r.json"
    assert run(*argv, "--out", str(out)) == 0
    assert json.loads(out.read_text())["tolerances"] == {
        **NEIGHBOR_TOLERANCES, **extra}


def test_neighbors_rejects_svg_before_building_the_graph(tmp_path,
                                                          monkeypatch):
    built = []
    monkeypatch.setattr(cli, "neighbor_graph",
                        lambda *a, **k: built.append(1))
    assert run("neighbors", "--domain", "cube", "--n", "2",
               "--svg", str(tmp_path / "x.svg")) == 2
    assert run("neighbors", "--m-out", "3",
               "--svg", str(tmp_path / "x.svg")) == 2
    assert built == [] and not (tmp_path / "x.svg").exists()
