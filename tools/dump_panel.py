"""Write the neighbor graph of a fixed seeded panel, one report per input.

Usage, from the root of a checkout:

    python3 tools/dump_panel.py OUTDIR

Each input's report goes to OUTDIR/<input>.json in the shape of a
`neighbors --dump-certs` report without its settings: df, the extremal
pair and certificate, the number of certificates and the certificate
list, rendered by the CLI's own writer (cli._report_pieces).
OUTDIR/SHA256SUMS holds one `sha256sum` line per report.  Nothing in
them depends on time, so `diff -r` between the outputs of two checkouts
shows every byte that a change moved.  A graph with a certificate that
fails `neighbors.check_graph` is refused: the script names its input and
exits 1.

The panel:

- S^1 -> R^2 at 512 and S^2 -> R^3 at 1024 samples (domain seed 1),
  maps [1, 1000], [1, 1001] and [1, 1002], and S^1 -> R^5 at 128
  samples, map [1, 1000], raw and rounded to 1 and 2 decimals:
  cospherical cells and their edges
- coincident images: a constant map, one cluster, and the S^1 maps
  rounded to whole numbers, clusters with pairs and cells between them
- the identity of S^1, the one all-sample tuple
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fneighbors import cli  # noqa: E402
from fneighbors.domains import sample_sphere  # noqa: E402
from fneighbors.maps import evaluate, random_map  # noqa: E402
from fneighbors.neighbors import (  # noqa: E402
    check_graph,
    extremal_pair,
    neighbor_graph,
)


def panel(max_samples: int | None = None):
    """(name, domain, images) of every input, none above max_samples
    samples."""
    def domain(n, samples):
        return sample_sphere(n, min(samples, max_samples or samples), seed=1,
                             scheme="quasi_uniform")

    for n, m_out, samples, keys in ((1, 2, 512, (1000, 1001, 1002)),
                                    (2, 3, 1024, (1000, 1001, 1002)),
                                    (1, 5, 128, (1000,))):
        dom = domain(n, samples)
        family = "circle_fourier" if n == 1 else "sphere_harmonic"
        for key in keys:
            images = evaluate(random_map(family, m_out, seed=[1, key],
                                         d_in=n + 1), dom)
            name = f"s{n}-r{m_out}-n{len(dom)}-map1-{key}"
            yield f"{name}-raw", dom, images
            for decimals in (1, 2):
                yield f"{name}-d{decimals}", dom, np.round(images, decimals)
            if n == 1:
                yield f"{name}-d0", dom, np.round(images)
    dom = domain(1, 512)
    yield f"constant-n{len(dom)}", dom, np.zeros((len(dom), 2))
    yield f"identity-s1-n{len(dom)}", dom, dom.samples.copy()


def write_panel(outdir: Path, max_samples: int | None = None) -> None:
    """Write every input's report and SHA256SUMS to outdir; exit 1,
    naming the input, at a graph that fails check_graph."""
    outdir.mkdir(parents=True, exist_ok=True)
    sums = []
    for name, dom, images in panel(max_samples):
        graph = neighbor_graph(images, dom)
        failed = np.count_nonzero(~check_graph(graph, images, dom))
        if failed:
            raise SystemExit(f"{name}: {failed} of {len(graph)} certificates "
                             "fail check_graph")
        pair, df, cert = extremal_pair(graph, dom)
        report = {"df": df, "extremal_pair": pair and list(pair),
                  "extremal_certificate": cert and cert.to_json(),
                  "n_certificates": len(graph), "certificates": graph}
        text = "".join(cli._report_pieces(report)).encode()
        (outdir / f"{name}.json").write_bytes(text)
        sums.append(f"{hashlib.sha256(text).hexdigest()}  {name}.json\n")
    (outdir / "SHA256SUMS").write_text("".join(sums))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    write_panel(Path(argv[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
