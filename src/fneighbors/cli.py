"""Command-line front end: reproducible experiment runs with JSON reports.

Settings resolve in three layers: built-in defaults, then a JSON config
file (--config) whose keys mirror the flag names, then explicit flags;
later layers win, and a null in the file is unset.  Each report embeds the resolved result-affecting
settings and the effective tolerance set, carries no timestamps, and
renders with sorted keys, so identical (command, config, seed) invocations
produce byte-identical output for any --threads value.

Exit codes: 0 clean pass, 1 property violation (the report is still
written and carries a reproducer), 2 usage or config error (also images
that are not finite or too large), 3 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .check import EPS_INSIDE_REL, NeighborGraph, tolerances
from .domains import (
    CoverAssignment,
    SampledDomain,
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
    simplex_boundary_cover,
)
from .homotopy import certify_cover
from .maps import (
    FAMILIES,
    MapSpec,
    check_fit,
    default_family,
    evaluate,
    map_from_json,
    map_to_json,
    random_map,
)
from .muopt import (
    BoundViolationError,
    OptimizerConfig,
    delta_sweep,
    estimate_mu,
    verify_borsuk_ulam,
    verify_cube_faces,
    verify_sphere_bound,
)
from .neighbors import ImageScaleError, extremal_pair, neighbor_graph
from .witness import EPS_WITNESS_REL, WitnessNotFoundError, witness_point

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# plumbing keys: they never change computed results, so they stay out of
# the embedded config (reports must match across --threads and out paths)
_EXECUTION_KEYS = frozenset({"threads", "out", "csv", "svg", "config"})


class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config resolution

_DOMAIN_DEFAULTS = {
    "domain": "sphere",
    "n": 1,
    "samples": 512,
    "seed": 0,
    "scheme": "quasi_uniform",
}

_MAP_DEFAULTS = {
    "map": None,
    "family": None,
    "m_out": 2,
    "degree": 3,
    "scale": 1.0,
}

DEFAULTS: dict[str, dict] = {
    "neighbors": {**_DOMAIN_DEFAULTS, **_MAP_DEFAULTS,
                  "eps_inside": None, "dump_certs": False,
                  "out": None, "svg": None},
    "verify-sphere": {"n": 1, "m_out": 2, "trials": 10, "samples": 2048,
                      "seed": 0, "scheme": "quasi_uniform", "family": None,
                      "degree": 3, "eps_inside": None, "threads": 1,
                      "out": None, "csv": None},
    "verify-cube": {"n": 2, "trials": 10, "samples": 2048, "seed": 0,
                    "eps_inside": None, "eps_witness": None, "threads": 1,
                    "out": None, "csv": None},
    "mu": {"n": 1, "m_out": None, "family": None, "samples": 512,
           "restarts": 8, "budget": 2000, "probes": 64, "seed": 0,
           "scheme": "quasi_uniform", "scale": 1.0, "degree": 3,
           "eps_inside": None, "out": None, "svg": None},
    "witness": {**_DOMAIN_DEFAULTS, **_MAP_DEFAULTS,
                "eps_witness": None, "out": None},
    "degree": {**_DOMAIN_DEFAULTS, "r_thick": None, "out": None},
    "delta-sweep": {**_DOMAIN_DEFAULTS, **_MAP_DEFAULTS, "bins": 40,
                    "eps_inside": None, "out": None, "csv": None},
}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in doc.items():
            norm = key.replace("-", "_")
            if norm == "command":
                continue
            if norm not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            if value is not None:  # null is unset, as an absent flag is
                cfg[norm] = value
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


# the least value of each number a subcommand may read, which also gives
# its type: every domain has a dimension and a sample, a sweep may have no
# trials, a map has a target, and no amplitude or tolerance is negative;
# the values in _ABOVE must exceed theirs.  Every float must be finite, and
# so must twice the amplitude, the width of numpy's uniform draw
_LEAST = {"n": 1, "samples": 1, "trials": 0, "seed": 0, "m_out": 1,
          "degree": 0, "restarts": 0, "budget": 0, "probes": 1, "bins": 1,
          "threads": 1, "scale": 0.0, "r_thick": 0.0, "eps_inside": 0.0,
          "eps_witness": 0.0}
_ABOVE = frozenset({"r_thick"})


def _check_numbers(cfg: dict) -> None:
    """Raises UsageError for a number that is not one, is not finite or
    lies below its _LEAST (at it, for _ABOVE), before any subcommand reads
    it."""
    for key, least in _LEAST.items():
        if cfg.get(key) is None:
            continue
        flag = "--" + key.replace("_", "-")
        try:
            value = type(least)(cfg[key])
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if isinstance(least, int) else "a number"
            raise UsageError(f"{flag} must be {kind}, not {cfg[key]!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, not {cfg[key]!r}")
        if key == "scale" and not math.isfinite(2.0 * value):
            raise UsageError(f"{flag} must be at most half the largest float")
        if key in _ABOVE:
            if not value > least:
                raise UsageError(f"{flag} must be above {least}")
        elif not value >= least:
            raise UsageError(f"{flag} must be at least {least}")


def _check_choices(cfg: dict) -> None:
    """Raises UsageError for a value outside its flag's choices, which
    argparse checks for flags but not for a config file."""
    for key, value in cfg.items():
        choices = _FLAGS[key].get("choices")
        if choices and value not in choices:
            raise UsageError(f"--{key.replace('_', '-')} must be one of "
                             f"{', '.join(choices)}, not {value!r}")


def _check_family(family: str | None) -> None:
    """Raises UsageError for a family name that maps does not define."""
    if family and family not in FAMILIES:
        raise UsageError(f"unknown family {family!r} (expected one of "
                         f"{', '.join(FAMILIES)})")


def _audit(command: str, cfg: dict) -> dict:
    kept = {k: v for k, v in cfg.items() if k not in _EXECUTION_KEYS}
    return {"command": command, **kept}


# ---------------------------------------------------------------------------
# shared builders

def _build_domain(cfg: dict) -> tuple[SampledDomain, CoverAssignment | None]:
    kind = cfg["domain"]
    n = int(cfg["n"])
    n_samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    try:
        if kind == "sphere":
            return sample_sphere(n, n_samples, seed=seed,
                                 scheme=cfg["scheme"]), None
        if kind == "simplex":
            return simplex_boundary_cover(n, n_samples, seed=seed)
        return cube_boundary_cover(n, n_samples, seed=seed)
    except ValueError as exc:
        raise UsageError(f"{kind} domain: {exc}")


def _domain_cover(cfg: dict) -> tuple[SampledDomain, CoverAssignment]:
    domain, cover = _build_domain(cfg)
    if cover is None:
        try:
            cover = regular_triangulation_cover(domain)
        except ValueError as exc:
            raise UsageError(f"{cfg['domain']} domain: {exc}")
    return domain, cover


def _fit(spec: MapSpec, kind: str, dim: int, d_in: int) -> MapSpec:
    """spec, or UsageError when maps.check_fit refuses it on the domain."""
    try:
        check_fit(spec, kind, dim, d_in)
    except ValueError as exc:
        raise UsageError(str(exc))
    return spec


def _sphere_map(family: str, n: int, m_out: int, degree: int) -> MapSpec:
    """The zero map of the family from S^n into R^m_out, or UsageError."""
    spec = random_map(family, m_out, seed=0, scale=0.0, d_in=n + 1,
                      degree=degree)
    return _fit(spec, "sphere", n, n + 1)


def _build_map(cfg: dict, domain: SampledDomain) -> MapSpec:
    if cfg.get("map"):
        text = str(cfg["map"])
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise UsageError(f"cannot read map file: {exc}")
        try:
            spec = map_from_json(text)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad map JSON: {exc}")
    else:
        spec = random_map(cfg.get("family") or default_family(domain),
                          m_out=int(cfg["m_out"]), seed=[int(cfg["seed"]), 11],
                          scale=float(cfg["scale"]),
                          d_in=domain.samples.shape[1],
                          degree=int(cfg["degree"]))
    return _fit(spec, domain.kind, domain.dim, domain.samples.shape[1])


def _tolerance(cfg: dict, key: str, default: float) -> float:
    """The value of a tolerance flag, or its default when it is unset (the
    report's config keeps null for it)."""
    value = cfg.get(key)
    return default if value is None else float(value)


# ---------------------------------------------------------------------------
# output

# Pair rows per piece of a dumped certificate list: bounds the report text
# held in memory at once, whatever the size of the graph.
CHUNK_ROWS = 1024

# One dumped certificate as json.dumps(cert.to_json(), sort_keys=True,
# indent=2) writes it as an item of the report's certificates list: a ball
# certificate, whose last field is its ball's text (_BALL), or a
# coincidence certificate, whose last field is empty.  Its indices are its
# first index and the text of the others: a pair row's second index,
# which %s spells as %d does, or the rest of a tuple's members.  So one
# %-format renders each certificate, pair row or tuple.
_HEAD = ('    {\n      "indices": [\n        %d,\n        %s\n      ],\n'
         '      "pair_distance": %s,\n      "slack": %s,\n')
_BALL_ROW = (_HEAD + '      "witness": {\n        "center": [\n'
             '          %s\n      }\n    }')
_BALL = '%s\n        ],\n        "radius": %s'
_COINCIDENCE_ROW = _HEAD + '      "witness": "coincidence"\n    }%s'


def _spell(values: np.ndarray) -> list[str]:
    """json's spelling of each float: repr, or NaN/Infinity/-Infinity."""
    values = np.asarray(values, dtype=np.float64)
    spell = float.__repr__ if np.isfinite(values).all() else json.dumps
    return list(map(spell, values.tolist()))


def _text_table(one: str, values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The text of each row of the float matrix values, its floats spelled
    once into the %-format one, in row order and CHUNK_ROWS rows at a time,
    each chunk of rows formatted into one string: (chunks, at), row r's
    text being chunks[at[0, r]][at[1, r]:at[2, r]].  The extra last column
    of at, the one row -1 picks, names an empty text.  A few large strings
    and three integer columns stand for the table, not one small string per
    row: small strings live in the interpreter's own arenas, and the few
    small objects that outlive a report pin those arenas in memory."""
    width = values.shape[1]
    fixed = len(one % (("",) * width))  # a row's text less its numbers
    chunks, at = [], np.zeros((3, len(values) + 1), dtype=np.intp)
    for start in range(0, len(values), CHUNK_ROWS):
        texts = _spell(values[start:start + CHUNK_ROWS].ravel())
        stop = start + len(texts) // width
        size = np.fromiter(map(len, texts), np.intp, len(texts))
        at[0, start:stop] = len(chunks)
        at[2, start:stop] = np.cumsum(size.reshape(-1, width).sum(axis=1)
                                      + fixed)
        at[1, start + 1:stop] = at[2, start:stop - 1]
        chunks.append((one * (stop - start)) % tuple(texts))
    at[0, -1] = len(chunks)
    chunks.append("")
    return chunks, at


def _take(table: tuple[list[str], np.ndarray], picks: np.ndarray
          ) -> tuple[list[str], list[int]]:
    """The texts of the distinct rows of the table (_text_table) that the
    column picks names, each sliced once from its chunk, and the place of
    each pick's text among them."""
    chunks, at = table
    distinct, inverse = np.unique(picks, return_inverse=True)
    return ([chunks[c][a:b] for c, a, b in zip(*at[:, distinct].tolist())],
            inverse.tolist())


def _merged(ids: np.ndarray, rows: np.ndarray, tuples: np.ndarray
            ) -> np.ndarray:
    """The entries of the certificates ids, numbered as NeighborGraph.row
    numbers them: rows[k] for pair row k, tuples[k - len(rows)] for a
    tuple."""
    tuple_ = ids >= len(rows)
    out = np.empty(len(ids), dtype=np.result_type(rows, tuples))
    out[~tuple_] = rows[ids[~tuple_]]
    out[tuple_] = tuples[ids[tuple_] - len(rows)]
    return out


def _render(graph: NeighborGraph, ids: np.ndarray,
            balls: tuple[list[str], np.ndarray], bits: np.ndarray,
            slacks: tuple[list[str], np.ndarray]) -> str:
    """The certificates ids of the graph, numbered as graph.row() numbers
    them, as one run of list items, one %-format each.  A certificate
    takes its ball's text from the table balls and its slack's from the
    table slacks of the distinct slack bit patterns bits (_text_table),
    each text sliced once (_take).  Nothing it makes outlives it but its
    text."""
    n = len(graph.pairs)
    members, starts = graph.tuple_members, graph.tuple_start
    ball = _merged(ids, graph.ball, graph.tuple_ball)
    ball_texts, which_ball = _take(balls, ball)
    slack_texts, which_slack = _take(slacks, np.searchsorted(
        bits, _merged(ids, graph.slack, graph.tuple_slack).view(np.int64)))
    # the indices after the first: a pair row's second, a tuple's others
    t = ids[ids >= n] - n
    bounds = np.append(starts, len(members))
    rest = np.empty(len(ids), dtype=object)
    rest[ids < n] = graph.pairs[ids[ids < n], 1]
    rest[ids >= n] = [",\n        ".join(map(str, members[a + 1:b].tolist()))
                      for a, b in zip(bounds[t].tolist(),
                                      bounds[t + 1].tolist())]
    return ",\n".join(
        (_BALL_ROW if w >= 0 else _COINCIDENCE_ROW)
        % (i, j, rho, slack_texts[s], ball_texts[b])
        for i, j, rho, s, w, b in zip(
            _merged(ids, graph.pairs[:, 0], members[starts]).tolist(),
            rest.tolist(), _spell(_merged(ids, graph.rho, graph.tuple_rho)),
            which_slack, ball.tolist(), which_ball))


def _certificate_pieces(graph: NeighborGraph):
    """The report's certificates list, byte for byte as json.dumps writes
    [c.to_json() for c in graph] at the report's nesting, in graph.order()
    and in pieces (_render): each piece ends before pair row
    k * CHUNK_ROWS, a tuple riding with the rows before it.  The balls and
    the distinct slack bit patterns (0.0 and -0.0 apart) are spelled once
    per report, into text tables (_text_table), so between pieces nothing
    is held per row, tuple or ball but numpy columns and a few strings."""
    if len(graph) == 0:
        yield "[]"
        return
    balls = _text_table(
        _BALL % (",\n          ".join(["%s"] * graph.centers.shape[1]), "%s"),
        np.column_stack([graph.centers, graph.radii]))
    bits = np.unique(np.concatenate([graph.slack, graph.tuple_slack])
                     .view(np.int64))
    slacks = _text_table("%s", bits.view(np.float64)[:, None])
    order = graph.order()
    cuts = np.flatnonzero(order < len(graph.pairs))[CHUNK_ROWS::CHUNK_ROWS]
    for k, ids in enumerate(np.split(order, cuts)):
        yield (",\n" if k else "[\n") + _render(graph, ids, balls, bits,
                                                 slacks)
    yield "\n  ]"


def _report_pieces(report: dict):
    """The report as json.dumps(report, sort_keys=True, indent=2) writes
    it, plus a newline, in pieces.  A NeighborGraph under "certificates"
    renders as its certificate list: the head, the list in pieces of at
    most CHUNK_ROWS rows, the tail.  Any other report is one piece."""
    graph = report.get("certificates")
    if not isinstance(graph, NeighborGraph):
        yield json.dumps(report, sort_keys=True, indent=2) + "\n"
        return
    text = json.dumps({**report, "certificates": None}, sort_keys=True, indent=2)
    head, tail = text.split('\n  "certificates": null', 1)
    yield head + '\n  "certificates": '
    yield from _certificate_pieces(graph)
    yield tail + "\n"


def _write_report(report: dict, out: str | None) -> None:
    """Write the report to out (stdout when None) piece by piece."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(_report_pieces(report))
    else:
        sys.stdout.writelines(_report_pieces(report))


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def _svg_doc(width: float, height: float, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _neighbors_svg(domain: SampledDomain, images: np.ndarray,
                   witness_sphere, pair, df: float) -> str:
    """Two panels: the domain circle with the extremal pair marked, and the
    image curve with the certifying sphere."""
    panel, margin = 360.0, 24.0
    body = ['<rect width="100%" height="100%" fill="white"/>']

    def dom_xy(p):
        s = panel / 2.4
        return (margin + panel / 2 + p[0] * s,
                margin + panel / 2 - p[1] * s)

    cx, cy = dom_xy(np.zeros(2))
    body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(panel / 2.4)}" fill="none" stroke="#999"/>')

    order = np.argsort(np.arctan2(domain.samples[:, 1], domain.samples[:, 0]),
                       kind="stable")
    loop = np.append(order, order[0])

    ext = [images]
    if witness_sphere is not None:
        c = np.asarray(witness_sphere.center, dtype=float)
        r = float(witness_sphere.radius)
        ext.append((c + r)[None, :])
        ext.append((c - r)[None, :])
    pts = np.vstack(ext)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(max(hi - lo))
    span = span if span > 0 else 1.0
    scale = panel / (1.15 * span)
    mid = (lo + hi) / 2.0
    x_right = margin * 2 + panel

    def img_xy(p):
        return (x_right + panel / 2 + (p[0] - mid[0]) * scale,
                margin + panel / 2 - (p[1] - mid[1]) * scale)

    curve = " ".join("{},{}".format(*map(_fmt, img_xy(q)))
                     for q in images[loop])
    body.append(f'<polyline points="{curve}" fill="none" '
                f'stroke="#1f77b4" stroke-width="1.2"/>')

    if witness_sphere is not None:
        wx, wy = img_xy(np.asarray(witness_sphere.center, dtype=float))
        body.append(f'<circle cx="{_fmt(wx)}" cy="{_fmt(wy)}" '
                    f'r="{_fmt(float(witness_sphere.radius) * scale)}" '
                    f'fill="none" stroke="#2ca02c" stroke-width="1.5" '
                    f'stroke-dasharray="6 3"/>')

    if pair is not None:
        a, b = pair
        ax, ay = dom_xy(domain.samples[a])
        bx, by = dom_xy(domain.samples[b])
        body.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                    f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                    f'stroke="#d62728" stroke-dasharray="4 3"/>')
        for x, y in ((ax, ay), (bx, by)):
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" '
                        f'fill="#d62728"/>')
        for q in (images[a], images[b]):
            qx, qy = img_xy(q)
            body.append(f'<circle cx="{_fmt(qx)}" cy="{_fmt(qy)}" r="4" '
                        f'fill="#d62728"/>')

    body.append(f'<text x="{_fmt(margin)}" y="{_fmt(margin * 0.7)}" '
                f'font-family="monospace" font-size="13">'
                f'domain pair, D_f = {_fmt(df)}</text>')
    body.append(f'<text x="{_fmt(x_right)}" y="{_fmt(margin * 0.7)}" '
                f'font-family="monospace" font-size="13">'
                f'image curve + witness sphere</text>')
    return _svg_doc(margin * 3 + panel * 2, margin * 2 + panel, body)


def _trace_svg(trace, lower_bound: float) -> str:
    """Running-best objective against evaluation count, with the proven
    lower bound as a dashed reference line."""
    width, height, margin = 480.0, 260.0, 32.0
    body = ['<rect width="100%" height="100%" fill="white"/>']
    if trace:
        xs = [i for i, _ in trace]
        ys = [v for _, v in trace]
        x_max = max(xs[-1], 1)
        y_lo = min(min(ys), lower_bound)
        y_hi = max(ys)
        y_span = (y_hi - y_lo) or 1.0

        def to_xy(e, v):
            return (margin + (width - 2 * margin) * e / x_max,
                    height - margin - (height - 2 * margin) * (v - y_lo) / y_span)

        # running best is a step function: hold each level until the next drop
        pts = []
        prev = None
        for e, v in trace:
            if prev is not None:
                pts.append(to_xy(e, prev))
            pts.append(to_xy(e, v))
            prev = v
        pts.append(to_xy(x_max, prev))
        line = " ".join("{},{}".format(*map(_fmt, p)) for p in pts)
        body.append(f'<polyline points="{line}" fill="none" '
                    f'stroke="#1f77b4" stroke-width="1.5"/>')
        _, by = to_xy(0, lower_bound)
        body.append(f'<line x1="{_fmt(margin)}" y1="{_fmt(by)}" '
                    f'x2="{_fmt(width - margin)}" y2="{_fmt(by)}" '
                    f'stroke="#d62728" stroke-dasharray="5 4"/>')
        body.append(f'<text x="{_fmt(margin)}" y="{_fmt(by - 5)}" '
                    f'font-family="monospace" font-size="12" fill="#d62728">'
                    f'lower bound {_fmt(lower_bound)}</text>')
    body.append(f'<text x="{_fmt(margin)}" y="{_fmt(margin * 0.6)}" '
                f'font-family="monospace" font-size="13">'
                f'best certified span vs evaluations</text>')
    return _svg_doc(width, height, body)


# ---------------------------------------------------------------------------
# command handlers; each returns (exit_code, report)

def cmd_neighbors(cfg: dict) -> tuple[int, dict]:
    domain, _ = _build_domain(cfg)
    spec = _build_map(cfg, domain)
    if cfg.get("svg") and not (domain.kind == "sphere" and domain.dim == 1
                               and spec.m_out == 2):
        raise UsageError("--svg needs the circle domain and m_out=2")
    eps_inside = _tolerance(cfg, "eps_inside", EPS_INSIDE_REL)
    images = evaluate(spec, domain)
    graph = neighbor_graph(images, domain, eps_inside_rel=eps_inside)
    pair, df, extremal_cert = extremal_pair(graph, domain)

    report = {
        "command": "neighbors",
        "config": _audit("neighbors", cfg),
        "tolerances": tolerances(eps_inside),
        "map": json.loads(map_to_json(spec)),
        "n_samples": len(domain),
        "n_certificates": len(graph),
        "df": float(df),
        "extremal_pair": list(pair) if pair is not None else None,
        "extremal_certificate": (extremal_cert.to_json()
                                 if extremal_cert is not None else None),
    }
    if cfg.get("dump_certs"):
        report["certificates"] = graph  # rendered from its columns

    if cfg.get("svg"):
        witness = getattr(extremal_cert, "witness", None)
        sphere = None if isinstance(witness, str) else witness
        Path(cfg["svg"]).write_text(
            _neighbors_svg(domain, images, sphere, pair, df))

    print(f"D_f = {df:.9g}  extremal pair = {report['extremal_pair']}  "
          f"certificates = {len(graph)}")
    return EXIT_OK, report


def _trials_line(rows: list[dict], key: str, label: str) -> str:
    """'<count> trials, <label> <largest row[key]>', without the largest
    when there are no trials."""
    if not rows:
        return "0 trials"
    return f"{len(rows)} trials, {label} {max(r[key] for r in rows):.3e}"


def cmd_verify_sphere(cfg: dict) -> tuple[int, dict]:
    n, m_out = int(cfg["n"]), int(cfg["m_out"])
    eps_inside = _tolerance(cfg, "eps_inside", EPS_INSIDE_REL)
    base = {"command": "verify-sphere",
            "config": _audit("verify-sphere", cfg),
            "tolerances": tolerances(eps_inside)}
    if m_out > n:
        if cfg.get("family"):
            _sphere_map(cfg["family"], n, m_out, int(cfg["degree"]))
        try:
            result = verify_sphere_bound(
                n, m_out, trials=int(cfg["trials"]),
                n_samples=int(cfg["samples"]), seed=int(cfg["seed"]),
                family=cfg.get("family"), scheme=cfg["scheme"],
                eps_inside_rel=eps_inside, threads=int(cfg["threads"]))
        except BoundViolationError as exc:
            report = {**base, "result": None, "all_ok": False,
                      "violation": str(exc), "reproducer": exc.reproducer}
            print(f"FAIL: {exc}")
            return EXIT_VIOLATION, report
        report = {**base, "result": result, "all_ok": result["all_ok"]}
        print(f"separation bound {result['bound']:.6f} (n={n}, m_out={m_out}); "
              f"{len(result['trials'])} trials at N={result['n_samples']}")
        margin = ("0 trials" if result["min_margin"] is None else
                  f"min margin over bound = {result['min_margin']:.6f}")
        print(f"{margin}; all consistent: {result['all_ok']}")
        if cfg.get("csv"):
            _write_csv(cfg["csv"],
                       ["trial", "df", "allowance", "margin", "n_certificates"],
                       result["trials"])
        return (EXIT_OK if result["all_ok"] else EXIT_VIOLATION), report
    # coincidence regime: antipodal sweep, circle domains only
    if n != 1:
        raise UsageError("the coincidence sweep (m_out <= n) is implemented "
                         "for n=1 only")
    if (cfg.get("family") or "circle_fourier") != "circle_fourier" \
            or cfg["scheme"] != "quasi_uniform":
        raise UsageError("the coincidence sweep (m_out <= n) draws "
                         "circle_fourier maps on quasi_uniform samples only")
    result = verify_borsuk_ulam(trials=int(cfg["trials"]),
                                n_samples=int(cfg["samples"]),
                                seed=int(cfg["seed"]), m_out=m_out,
                                degree=int(cfg["degree"]),
                                threads=int(cfg["threads"]))
    report = {**base, "result": result, "all_ok": result["all_ok"]}
    print(f"coincidence sweep (m_out={m_out} <= n=1): "
          f"{_trials_line(result['trials'], 'image_gap', 'max image gap')}; "
          f"all within allowance: {result['all_ok']}")
    if cfg.get("csv"):
        _write_csv(cfg["csv"],
                   ["trial", "rho", "image_gap", "allowance", "ok"],
                   result["trials"])
    return (EXIT_OK if result["all_ok"] else EXIT_VIOLATION), report


def cmd_verify_cube(cfg: dict) -> tuple[int, dict]:
    if int(cfg["n"]) < 2:
        raise UsageError("--n must be at least 2: the cube boundary sweep "
                         "needs two opposite faces and a third to join them")
    eps_inside = _tolerance(cfg, "eps_inside", EPS_INSIDE_REL)
    eps_witness = _tolerance(cfg, "eps_witness", EPS_WITNESS_REL)
    base = {"command": "verify-cube",
            "config": _audit("verify-cube", cfg),
            "tolerances": {**tolerances(eps_inside),
                           "eps_witness_rel": eps_witness}}
    try:
        result = verify_cube_faces(int(cfg["n"]), trials=int(cfg["trials"]),
                                   n_samples=int(cfg["samples"]),
                                   seed=int(cfg["seed"]),
                                   eps_witness_rel=eps_witness,
                                   eps_inside_rel=eps_inside,
                                   threads=int(cfg["threads"]))
    except WitnessNotFoundError as exc:
        report = {**base, "result": None, "all_ok": False,
                  "violation": "witness search did not converge",
                  "best_report": exc.report.to_json()}
        print("FAIL: witness search did not converge")
        return EXIT_VIOLATION, report
    report = {**base, "result": result, "all_ok": result["all_ok"]}
    print(f"disjoint-faces sweep on the {int(cfg['n'])}-cube boundary: "
          f"{_trials_line(result['trials'], 'residual', 'max residual')}; "
          f"all certified: {result['all_ok']}")
    if cfg.get("csv"):
        _write_csv(cfg["csv"],
                   ["trial", "pair", "faces", "residual", "lp_verdict", "ok"],
                   result["trials"])
    return (EXIT_OK if result["all_ok"] else EXIT_VIOLATION), report


def cmd_mu(cfg: dict) -> tuple[int, dict]:
    n = int(cfg["n"])
    m_out = int(cfg["m_out"]) if cfg.get("m_out") is not None else n + 1
    eps_inside = _tolerance(cfg, "eps_inside", EPS_INSIDE_REL)
    ocfg = OptimizerConfig(n_restarts=int(cfg["restarts"]),
                           budget=int(cfg["budget"]),
                           scale=float(cfg["scale"]),
                           degree=int(cfg["degree"]),
                           seed=int(cfg["seed"]),
                           n_probes=int(cfg["probes"]))
    domain = sample_sphere(n, int(cfg["samples"]), seed=int(cfg["seed"]),
                           scheme=cfg["scheme"])
    family = cfg.get("family") or default_family(domain)
    if not _sphere_map(family, n, m_out, int(cfg["degree"])).params:
        raise UsageError(f"mu searches over parameters, and {family} has none")
    base = {"command": "mu", "config": _audit("mu", cfg),
            "tolerances": tolerances(eps_inside)}
    try:
        est = estimate_mu(domain, family, m_out, ocfg,
                          eps_inside_rel=eps_inside)
    except BoundViolationError as exc:
        report = {**base, "result": None,
                  "violation": str(exc), "reproducer": exc.reproducer}
        print(f"FAIL: {exc}")
        return EXIT_VIOLATION, report
    report = {**base, "result": est.to_json()}
    print(f"bracket [{est.lower_bound:.6f}, {est.best_df:.6f}] "
          f"(proven lower bound, best certified span)")
    print(f"family {family} -> R^{m_out}, {len(est.trace)} improvements, "
          f"{est.settings['evals']} evaluations")
    if cfg.get("svg"):
        Path(cfg["svg"]).write_text(_trace_svg(est.trace, est.lower_bound))
    return EXIT_OK, report


def cmd_witness(cfg: dict) -> tuple[int, dict]:
    domain, cover = _domain_cover(cfg)
    spec = _build_map(cfg, domain)
    eps_witness = _tolerance(cfg, "eps_witness", EPS_WITNESS_REL)
    images = evaluate(spec, domain)
    base = {"command": "witness", "config": _audit("witness", cfg),
            "tolerances": {"eps_witness_rel": eps_witness},
            "map": json.loads(map_to_json(spec)),
            "elements": list(cover.names)}
    rep = witness_point(domain, cover, images, eps_witness_rel=eps_witness)
    ok = rep.status == "ok"
    report = {**base, "result": rep.to_json(), "ok": ok}
    point = np.array2string(np.asarray(rep.point), precision=6,
                            separator=", ")
    print(f"witness point {point}  radius {rep.radius:.6g}  "
          f"residual {rep.residual:.3e}")
    print(f"contacts {list(rep.chosen)} across {len(cover.names)} elements")
    if not ok:
        print(f"FAIL: residual {rep.residual:.3e} above gate")
        return EXIT_VIOLATION, report
    return EXIT_OK, report


def cmd_degree(cfg: dict) -> tuple[int, dict]:
    domain, cover = _domain_cover(cfg)
    r_thick = cfg.get("r_thick")
    cert = certify_cover(domain, cover,
                         r_thick=float(r_thick) if r_thick is not None else None)
    report = {"command": "degree", "config": _audit("degree", cfg),
              "elements": list(cover.names), "result": cert.to_json()}
    shown = "n/a" if cert.degree is None else cert.degree
    print(f"degree = {shown}  confidence = {cert.confidence:.3f}  "
          f"verdict = {cert.verdict}")
    return EXIT_OK, report


def cmd_delta_sweep(cfg: dict) -> tuple[int, dict]:
    domain, _ = _build_domain(cfg)
    spec = _build_map(cfg, domain)
    eps_inside = _tolerance(cfg, "eps_inside", EPS_INSIDE_REL)
    hist = delta_sweep(domain, spec, bins=int(cfg["bins"]),
                       eps_inside_rel=eps_inside)
    report = {"command": "delta-sweep", "config": _audit("delta-sweep", cfg),
              "tolerances": tolerances(eps_inside),
              "map": json.loads(map_to_json(spec)),
              "result": hist.to_json()}
    print(f"{hist.n_pairs} certified pairs, intrinsic distances in "
          f"[{hist.d_min:.6g}, {hist.d_max:.6g}]")
    if cfg.get("csv"):
        rows = [{"bin_lo": hist.bin_edges[i], "bin_hi": hist.bin_edges[i + 1],
                 "count": hist.counts[i]} for i in range(len(hist.counts))]
        _write_csv(cfg["csv"], ["bin_lo", "bin_hi", "count"], rows)
    return EXIT_OK, report


HANDLERS = {
    "neighbors": cmd_neighbors,
    "verify-sphere": cmd_verify_sphere,
    "verify-cube": cmd_verify_cube,
    "mu": cmd_mu,
    "witness": cmd_witness,
    "degree": cmd_degree,
    "delta-sweep": cmd_delta_sweep,
}


# ---------------------------------------------------------------------------
# parser

# argparse keywords of the flag --key (underscores as dashes) for each key
# of a DEFAULTS entry; every flag defaults to None so that _resolve can
# tell an explicit flag from the config file and the built-in default
_FLAGS: dict[str, dict] = {
    "domain": {"choices": ["sphere", "simplex", "cube"], "help": "domain kind"},
    "n": {"type": int, "help": "sphere dimension / simplex n / cube dimension"},
    "samples": {"type": int, "help": "sample count"},
    "seed": {"type": int, "help": "PRNG stream key"},
    "scheme": {"choices": ["quasi_uniform", "uniform_random"],
               "help": "sphere sampling scheme"},
    "map": {"help": "map as inline JSON or a path to a JSON file"},
    "family": {"help": "map family for a seeded random draw (used when "
                       "--map is absent)"},
    "m_out": {"type": int, "help": "target dimension"},
    "degree": {"type": int, "help": "family truncation order"},
    "scale": {"type": float, "help": "random parameter amplitude"},
    "trials": {"type": int, "help": "number of random maps"},
    "restarts": {"type": int, "help": "optimizer restarts after the probes"},
    "budget": {"type": int, "help": "evaluations per restart"},
    "probes": {"type": int, "help": "uniform probes before restarts"},
    "bins": {"type": int, "help": "histogram bins"},
    "r_thick": {"type": float, "help": "fixed thickening radius (default: "
                                       "three-point scan)"},
    "eps_inside": {"type": float,
                   "help": "relative emptiness tolerance override"},
    "eps_witness": {"type": float, "help": "relative residual gate override"},
    "dump_certs": {"action": "store_true", "default": None,
                   "help": "embed every certificate in the report"},
    "threads": {"type": int,
                "help": "trials run on this many Python threads, which "
                        "overlap in the NumPy and Qhull work, so sweeps run "
                        "faster on 2 cores than on 1; reports are "
                        "byte-identical for any value"},
    "out": {"help": "write the JSON report here instead of stdout"},
    "csv": {"help": "write the trials or the histogram as CSV"},
    "svg": {"help": "write an SVG plot (neighbors: circle domain, m_out=2 "
                    "only; mu: the running-best trace)"},
}

_COMMAND_HELP = {
    "neighbors": "certify the neighbor graph of one map and report the "
                 "extremal span",
    "verify-sphere": "randomized sweep of the sphere lower bound (or the "
                     "coincidence sweep when m_out <= n)",
    "verify-cube": "disjoint-faces sweep on the cube boundary",
    "mu": "minimize the certified span over a map family and report the "
          "bracket",
    "witness": "search for a common witness sphere over the domain's "
               "standard cover",
    "degree": "classify the standard cover by the degree of its nerve map",
    "delta-sweep": "histogram of intrinsic distances over all certified "
                   "pairs",
}


# cached: one process may call main many times (a benchmark loop, the
# tests), and each build makes about 90 add_argument calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One subparser per DEFAULTS entry: --config plus a flag per key."""
    parser = argparse.ArgumentParser(
        prog="fneighbors",
        description="certified neighbor-pair experiments with reproducible "
                    "JSON reports")
    sub = parser.add_subparsers(dest="cmd")
    for cmd, defaults in DEFAULTS.items():
        p = sub.add_parser(cmd, help=_COMMAND_HELP[cmd])
        for key, value in defaults.items():
            kwargs = dict(_FLAGS[key])
            if value is not None and not isinstance(value, bool):
                kwargs["help"] += f" (default {value})"
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.add_argument("--config", help="JSON file whose keys mirror the "
                                        "flags; explicit flags win")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        cfg = _resolve(args, DEFAULTS[args.cmd])
        _check_numbers(cfg)
        _check_choices(cfg)
        _check_family(cfg.get("family"))
        code, report = HANDLERS[args.cmd](cfg)
        _write_report(report, cfg.get("out"))
        return code
    except (UsageError, ImageScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
