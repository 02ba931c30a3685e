"""Map-family optimization and randomized bound verification.

The neighbor span D_f of a sampled map is the largest intrinsic distance
over certified neighbor tuples.  Minimizing it over a parametric family
brackets the family-relative infimum from above, while the separation
bound sqrt((n+2)/n) (maps off the n-sphere into a strictly higher
dimension) bounds it from below.  Everything here is derivative-free and
seeded: the objective is piecewise smooth at best, and reports must be
bit-reproducible.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .domains import SampledDomain, cube_boundary_cover, sample_sphere
from .geometry import separation_bound
from .maps import (
    MapSpec,
    default_family,
    discretization_allowance,
    evaluate,
    map_to_json,
    param_count,
    random_map,
)
from .neighbors import (
    EPS_INSIDE_REL,
    compute_df,
    extremal_pair,
    neighbor_graph,
    neighbor_span,
    pair_is_neighbor_fast,
)
from .witness import EPS_WITNESS_REL, disjoint_faces_check

__all__ = [
    "OptimizerConfig",
    "MuEstimate",
    "BoundViolationError",
    "df_objective",
    "estimate_mu",
    "verify_sphere_bound",
    "verify_borsuk_ulam",
    "verify_cube_faces",
    "delta_sweep",
    "DeltaHistogram",
]


def _run_trials(fn, trials: int, threads: int) -> list[dict]:
    """Trial rows in index order.  Each trial seeds its own PRNG stream, so
    the rows are identical for any worker count; executor.map preserves
    submission order, which keeps reports byte-reproducible."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


@dataclass(frozen=True)
class OptimizerConfig:
    """Restarted Nelder-Mead settings for estimate_mu.

    budget is the evaluation cap per restart; scale the half-width of the
    uniform start box in parameter space; degree the truncation order
    passed to the map family.  The search density is that of the domain
    passed to estimate_mu.
    """

    n_restarts: int = 8
    budget: int = 2000
    scale: float = 1.0
    degree: int = 3
    seed: int = 0
    n_probes: int = 64


DEFAULT_OPT_CONFIG = OptimizerConfig()
PERTURB = 0.35  # odd restarts start this many scales (1 sd) off the incumbent


class BoundViolationError(RuntimeError):
    """A certified D_f fell below the proven lower bound minus the
    sampling allowance: either a tolerance bug or broken sampling.  Carries
    everything needed to replay the offending evaluation."""

    def __init__(self, message: str, reproducer: dict):
        super().__init__(message)
        self.reproducer = reproducer


@dataclass(frozen=True)
class MuEstimate:
    """Family-relative bracket for the infimum of D_f.

    best_df is certified at doubled sampling density; lower_bound is the
    theorem value for the regime (separation bound when m_out exceeds the
    domain dimension, otherwise 2); trace records (evaluation index,
    running best) at each improvement during the search.
    """

    best_df: float
    best_map: MapSpec
    lower_bound: float
    trace: tuple[tuple[int, float], ...]
    settings: dict

    def to_json(self) -> dict:
        return {"best_df": float(self.best_df),
                "best_map": map_to_json(self.best_map),
                "lower_bound": float(self.lower_bound),
                "trace": [[int(i), float(v)] for i, v in self.trace],
                "settings": dict(self.settings)}


def _check_bound(df: float, bound: float, spec: MapSpec, images: np.ndarray,
                 domain: SampledDomain, label: str, report: bool = True,
                 **context) -> float | None:
    """Returns the map's sampling allowance, or raises BoundViolationError
    (message led by label, reproducer the context plus the map, df, bound
    and allowance) when the certified D_f is below the bound minus it.

    The allowance is never negative, so D_f at or above the bound cannot
    fail the check: unless the caller reports the allowance (report), it
    is then not computed and None is returned."""
    if not report and df >= bound:
        return None
    allowance = discretization_allowance(images, domain)
    if df < bound - allowance:
        raise BoundViolationError(
            f"{label}D_f={df:.6f} below {bound:.6f} - {allowance:.6f}",
            reproducer={**context, "map": map_to_json(spec), "df": df,
                        "bound": bound, "allowance": allowance})
    return allowance


def df_objective(domain: SampledDomain, family: str, m_out: int, *,
                 eps_inside_rel: float = EPS_INSIDE_REL):
    """Returns params -> certified D_f on the given sampled domain.

    Each evaluation reads only D_f, so it goes through neighbor_span, which
    certifies just the longest Delaunay edge when it can and builds the
    full neighbor graph otherwise; the value is the same either way.

    When the map leaves the Borsuk-Ulam regime (m_out > domain dimension),
    every evaluation is tested against the separation bound minus the
    per-map sampling allowance (_check_bound), which is computed only when
    D_f is below the bound itself; a violation raises BoundViolationError
    with a reproducer instead of returning.
    """
    bound = separation_bound(domain.dim) if m_out > domain.dim else None

    def objective(params: np.ndarray) -> float:
        spec = MapSpec(family=family, m_out=m_out,
                       params=tuple(float(p) for p in params))
        images = evaluate(spec, domain)
        df = neighbor_span(images, domain, eps_inside_rel=eps_inside_rel)
        if bound is not None:
            _check_bound(df, bound, spec, images, domain, "certified ",
                         report=False, kind=domain.kind, dim=domain.dim,
                         n_samples=len(domain), domain_seed=domain.seed,
                         scheme=domain.scheme)
        return df

    return objective


# Nelder-Mead stops once every vertex lies within XATOL of the best in each
# coordinate and within FATOL of its value.
XATOL = 1e-4
FATOL = 1e-4


def _nelder_mead(x0: np.ndarray):
    """Nelder-Mead simplex search (Nelder and Mead 1965) from x0, ask-tell:
    yields (kind, points), kind "initial" (n + 1 points), "reflection",
    "expansion", "outside_contraction", "inside_contraction" (one point) or
    "shrink" (n points), and is sent the values of a prefix of the points.
    Returns the best vertex and its value once the stop test holds or a
    batch comes back short.  Unevaluated initial vertices then keep inf,
    and a short shrink moves its evaluated rows and the next one, as the
    sequential loop moved row j before evaluating it."""
    rho, chi, psi, sigma, nonzdelt, zdelt = 1, 2, 0.5, 0.5, 0.05, 0.00025
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    k = np.arange(n)
    sim[k + 1, k] = np.where(sim[0] != 0, (1 + nonzdelt) * sim[0], zdelt)
    fsim = np.full(n + 1, np.inf)
    vals = yield "initial", sim
    fsim[:len(vals)] = vals
    cut = len(vals) <= n
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while not cut and not (np.max(np.abs(sim[1:] - sim[0])) <= XATOL
                           and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        vals = yield "reflection", [xr]
        if not vals:
            break  # spent between iterations: nothing to re-sort
        fxr = vals[0]
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            vals = yield "expansion", [xe]
            cut = not vals
            if vals:
                sim[-1], fsim[-1] = (xe, vals[0]) if vals[0] < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = ((1 + psi * rho) * xbar - psi * rho * sim[-1] if outside
                  else (1 - psi) * xbar + psi * sim[-1])
            vals = yield ("outside_contraction" if outside
                          else "inside_contraction"), [xc]
            cut = not vals
            if vals and (vals[0] <= fxr if outside else vals[0] < fsim[-1]):
                sim[-1], fsim[-1] = xc, vals[0]
            elif vals:
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                vals = yield "shrink", shrunk
                cut = len(vals) < n
                sim[1:len(vals) + 2] = shrunk[:len(vals) + 1]
                fsim[1:len(vals) + 1] = vals
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(fsim[0])


def minimize(fun, x0: np.ndarray, budget: int) -> tuple[np.ndarray, float]:
    """Nelder-Mead for a minimum of fun from x0 in at most budget
    evaluations: the best vertex and its value.  It passes _nelder_mead's
    batches to fun point by point, in order and as copies, up to the
    budget left, and sends the values back.  So it evaluates the points
    scipy's minimize(fun, x0, method="Nelder-Mead", options=
    {"maxfev": budget, "xatol": XATOL, "fatol": FATOL, "adaptive": False})
    evaluates in scipy 1.13-1.17, in its order, and returns its x and fun.
    The initial simplex (each coordinate times 1.05, or 0.00025 where it
    is zero), coefficients, argsorts (twice after the first simplex: a
    second unstable sort may reorder ties) and stop test are scipy's.
    Owning them keeps `mu` runs off scipy's optimize package and its
    private code; estimate_mu calls this through the module attribute."""
    search, vals = _nelder_mead(x0), None
    try:
        while True:
            _, points = search.send(vals)
            vals = [fun(np.copy(x)) for x in points[:budget]]
            budget -= len(vals)
    except StopIteration as done:
        return done.value


def estimate_mu(domain: SampledDomain, family: str, m_out: int,
                cfg: OptimizerConfig = DEFAULT_OPT_CONFIG, *,
                eps_inside_rel: float = EPS_INSIDE_REL) -> MuEstimate:
    """Bracket inf D_f over the family by restarted Nelder-Mead.

    Start points: the best of cfg.n_probes uniform probes, then fresh
    uniform draws alternating with perturbations of the incumbent; each
    restart owns the PRNG stream (cfg.seed, restart index).  The trace
    carries every improvement of the running minimum.  The incumbent is
    re-certified on a domain of twice the sampling density before being
    returned (same seed and scheme), keeping reported values conservative.
    Both the search and the re-certification are df_objective evaluations,
    so the reported value is checked against the bound too, and they read
    D_f through neighbor_span, never a full neighbor graph unless its
    early exit falls back.  The restarts run muopt's own Nelder-Mead
    (minimize), which evaluates the points scipy's would, so scipy's
    optimize package is not loaded.
    """
    if cfg.n_probes < 1:
        raise ValueError("estimate_mu needs at least one probe")
    n_params = param_count(family, m_out, d_in=domain.samples.shape[1],
                           degree=cfg.degree)
    objective = df_objective(domain, family, m_out,
                             eps_inside_rel=eps_inside_rel)
    lower = separation_bound(domain.dim) if m_out > domain.dim else 2.0

    evals = 0
    best_val = math.inf
    best_params: np.ndarray | None = None
    trace: list[tuple[int, float]] = []

    def tracked(params: np.ndarray) -> float:
        nonlocal evals, best_val, best_params
        val = objective(params)
        evals += 1
        if val < best_val:
            best_val = val
            best_params = np.array(params, dtype=float)
            trace.append((evals, float(val)))
        return val

    probe_rng = np.random.default_rng([cfg.seed, 0])
    probes = probe_rng.uniform(-cfg.scale, cfg.scale,
                               size=(cfg.n_probes, n_params))
    probe_vals = [tracked(p) for p in probes]
    order = np.argsort(probe_vals, kind="stable")

    for restart in range(cfg.n_restarts):
        rng = np.random.default_rng([cfg.seed, restart + 1])
        if restart == 0:
            x0 = probes[order[0]]
        elif restart % 2 == 1 and best_params is not None:
            x0 = best_params + PERTURB * cfg.scale * rng.standard_normal(n_params)
        else:
            x0 = rng.uniform(-cfg.scale, cfg.scale, size=n_params)
        minimize(tracked, x0, cfg.budget)

    best_map = MapSpec(family=family, m_out=m_out,
                       params=tuple(float(p) for p in best_params))
    dense = sample_sphere(domain.dim, 2 * len(domain), seed=domain.seed,
                          scheme=domain.scheme)
    final_df = df_objective(dense, family, m_out,
                            eps_inside_rel=eps_inside_rel)(best_params)
    settings = asdict(cfg)
    settings.update({"family": family, "m_out": m_out,
                     "n_samples": len(domain), "evals": evals})
    return MuEstimate(best_df=float(final_df), best_map=best_map,
                      lower_bound=float(lower), trace=tuple(trace),
                      settings=settings)


def verify_sphere_bound(n: int, m_out: int, trials: int, n_samples: int,
                        seed: int = 0, family: str | None = None,
                        scheme: str = "quasi_uniform",
                        eps_inside_rel: float = EPS_INSIDE_REL,
                        threads: int = 1) -> dict:
    """Randomized check of D_f >= sqrt((n+2)/n) on the n-sphere.

    Requires m_out > n (below that the Borsuk-Ulam coincidence regime
    applies and the separation bound is not the statement being tested).
    Each trial draws a fresh map, certifies the neighbor graph, and
    compares D_f against the bound minus that map's sampling allowance; a
    violating trial raises BoundViolationError rather than being recorded.
    min_margin is the least D_f - bound over the trials (None for none).
    """
    if m_out <= n:
        raise ValueError("the separation bound needs m_out > n")
    bound = separation_bound(n)
    domain = sample_sphere(n, n_samples, seed=seed, scheme=scheme)
    family = family or default_family(domain)

    def one(t: int) -> dict:
        spec = random_map(family, m_out=m_out, seed=[seed, 1000 + t],
                          d_in=n + 1)
        images = evaluate(spec, domain)
        graph = neighbor_graph(images, domain, eps_inside_rel=eps_inside_rel)
        pair, df, _ = extremal_pair(graph, domain)
        allowance = _check_bound(df, bound, spec, images, domain,
                                 f"trial {t}: ", trial=t, n=n, m_out=m_out,
                                 n_samples=n_samples, seed=seed, scheme=scheme)
        return {"trial": t, "map": map_to_json(spec), "df": float(df),
                "allowance": float(allowance), "margin": float(df - bound),
                "extremal_pair": list(pair) if pair else None,
                "n_certificates": len(graph)}

    rows = _run_trials(one, trials, threads)
    margins = [r["margin"] for r in rows]
    return {"n": n, "m_out": m_out, "bound": float(bound),
            "n_samples": len(domain), "trials": rows,
            "min_margin": min(margins) if margins else None,
            "all_ok": True}


def verify_borsuk_ulam(trials: int, n_samples: int = 2048, seed: int = 0,
                       m_out: int = 1, degree: int = 3,
                       threads: int = 1) -> dict:
    """Coincidence search for circle maps into R^(m_out <= 1 dims).

    With exact antipodal sampling, g(x) = f(x) - f(-x) satisfies
    g(-x) = -g(x), so along the sample loop some adjacent antipodal pair
    changes sign and the gap |f(x) - f(-x)| at the best sample is bounded
    by the sampling allowance.  The reported pair is antipodal, hence at
    intrinsic distance exactly 2.
    """
    domain = sample_sphere(1, n_samples, seed=seed, scheme="quasi_uniform")
    anti = domain.antipode
    assert anti is not None

    def one(t: int) -> dict:
        spec = random_map("circle_fourier", m_out=m_out, seed=[seed, 500 + t],
                          degree=degree)
        images = evaluate(spec, domain)
        gaps = np.linalg.norm(images - images[anti], axis=1)
        k = int(np.argmin(gaps))
        allowance = discretization_allowance(images, domain)
        return {"trial": t, "map": map_to_json(spec),
                "pair": [min(k, int(anti[k])), max(k, int(anti[k]))],
                "rho": float(domain.rho(k, int(anti[k]))),
                "image_gap": float(gaps[k]),
                "allowance": float(allowance),
                "ok": bool(gaps[k] <= allowance)}

    rows = _run_trials(one, trials, threads)
    return {"n": 1, "m_out": m_out, "n_samples": len(domain),
            "trials": rows, "all_ok": bool(all(r["ok"] for r in rows))}


def verify_cube_faces(m: int, trials: int, n_samples: int, seed: int = 0,
                      eps_witness_rel: float = EPS_WITNESS_REL,
                      eps_inside_rel: float = EPS_INSIDE_REL,
                      threads: int = 1) -> dict:
    """Disjoint-faces sweep on the boundary of [0,1]^m.

    Each trial draws a quadratic map into R^m, runs the witness search on
    the cover by min-faces plus the max-face union, and extracts a
    neighbor pair on the two opposite faces of one axis.  The pair is then
    cross-checked with the LP predicate on the full image set; a trial is
    ok only when both routes agree.  A witness search that fails to
    converge raises WitnessNotFoundError with its best report attached.
    """
    domain, cover = cube_boundary_cover(m, n_samples, seed=seed)

    def one(t: int) -> dict:
        spec = random_map("poly_quadratic", m_out=m, seed=[seed, 2000 + t],
                          d_in=m)
        images = evaluate(spec, domain)
        result = disjoint_faces_check(domain, cover, images,
                                      eps_witness_rel=eps_witness_rel)
        i, j = result.pair
        lp_verdict, _ = pair_is_neighbor_fast(i, j, images,
                                              eps_inside_rel=eps_inside_rel)
        return {"trial": t, "map": map_to_json(spec),
                "pair": [int(i), int(j)], "faces": list(result.faces),
                "residual": float(result.report.residual),
                "radius": float(result.report.radius),
                "lp_verdict": lp_verdict,
                "ok": lp_verdict == "yes"}

    rows = _run_trials(one, trials, threads)
    return {"m": m, "n_samples": len(domain), "trials": rows,
            "all_ok": bool(all(r["ok"] for r in rows))}


@dataclass(frozen=True)
class DeltaHistogram:
    """Empirical distribution of certified pair distances: exploratory
    output, nothing asserted."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    d_min: float
    d_max: float
    n_pairs: int

    def to_json(self) -> dict:
        return {"bin_edges": [float(v) for v in self.bin_edges],
                "counts": [int(c) for c in self.counts],
                "d_min": float(self.d_min), "d_max": float(self.d_max),
                "n_pairs": int(self.n_pairs)}


def delta_sweep(domain: SampledDomain, spec: MapSpec, bins: int = 40,
                eps_inside_rel: float = EPS_INSIDE_REL) -> DeltaHistogram:
    """Histogram of intrinsic distances over all certified neighbor pairs.

    Pair rows and every internal pair of each tuple certificate count (a
    cell tuple's edges twice, as rows and in the tuple), the tuples in
    chunks to bound memory.  The bins span [0, 2 + 1e-9], widened to the
    largest certified distance on domains whose diameter exceeds 2.
    """
    images = evaluate(spec, domain)
    graph = neighbor_graph(images, domain, eps_inside_rel=eps_inside_rel)
    edges = np.linspace(0.0, max(2.0 + 1e-9, compute_df(graph, domain)),
                        bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    d_min, d_max, n_pairs = math.inf, 0.0, 0

    def distances():
        yield graph.rho
        for idx in np.split(graph.tuple_members, graph.tuple_start)[1:]:
            for start, d in domain.rho_blocks(idx, idx):
                # keep only pairs (global_row < col) to count each pair once
                yield d[np.arange(start, start + len(d))[:, None] < np.arange(len(idx))]

    for vals in distances():
        counts += np.histogram(vals, bins=edges)[0]
        n_pairs += vals.size
        if vals.size:
            d_min, d_max = min(d_min, float(vals.min())), max(d_max, float(vals.max()))
    if not math.isfinite(d_min):
        d_min = 0.0
    return DeltaHistogram(bin_edges=tuple(float(v) for v in edges),
                          counts=tuple(int(c) for c in counts),
                          d_min=d_min, d_max=d_max, n_pairs=n_pairs)
