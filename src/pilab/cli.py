"""Command-line front end.

Subcommands: gen, profile, decompose, graph, verify, render.  Exit codes:
0 success (all inequalities pass), 2 an inequality check FAILed, 1 usage,
I/O or out-of-memory error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import covering as cov
from . import gallery, graph_ineq, verify
from .errors import NoBasePoint, NoBoundary, NotAhlfors, NotInAnnulus, PilabError


def _checked(convert, ok, requirement):
    """An argparse type: `convert` the text, and keep the value if it is `ok`."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value

    return parse


_kappa = _checked(float, lambda k: k > 1, "kappa must be > 1")
_family_count = _checked(int, lambda c: c >= 5, "count must be >= 5, one function per generator")
_exponent = _checked(float, lambda x: 1 <= x < math.inf, "exponent must be finite and >= 1")
_seed_value = _checked(int, lambda v: v >= 0, "seed must be an integer >= 0")


def _seed(args):
    """--seed, else PILAB_SEED, else 0; checked before the space is loaded."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PILAB_SEED")
    try:
        return _seed_value(env) if env else 0
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"PILAB_SEED: {exc}") from exc


AUTO_KAPPAS = (1.2, 1.5, 2.0, 3.0, 4.0)
_AUTO = ", ".join(f"{k:g}" for k in AUTO_KAPPAS)
_KAPPA_HELP = (f"scale > 1, or 'auto': the smallest of {_AUTO} with relatively connected "
               "annuli at every tested radius and pieces on two levels; else 2, with a warning")


def _positive_kappa(text):
    return "auto" if text == "auto" else _kappa(text)


def _levels(space, o, kappa):
    """How many levels the kappa-pieces span; two leave the covering graph an interior."""
    return len(np.unique(cov.kappa_decomposition(space, o, kappa).pieces))


@contextlib.contextmanager
def _naming_kappas(space, o, kappa):
    """End a one-level refusal with the AUTO_KAPPAS at which the pieces span two levels."""
    try:
        yield
    except NoBoundary as exc:
        if _levels(space, o, kappa) != 1:
            raise
        works = ", ".join(f"{k:g}" for k in AUTO_KAPPAS if _levels(space, o, k) > 1)
        at = works or "none of " + _AUTO
        raise NoBoundary(f"{exc}; the pieces span two levels at kappa {at}") from exc


def _resolve_kappa(args, space, o):
    if args.kappa != "auto":
        return args.kappa
    for kappa in AUTO_KAPPAS:
        if _levels(space, o, kappa) > 1 and graph_ineq.rca_check(space, o, kappa).passed:
            return kappa
    print("warning: --kappa auto: annuli not relatively connected; using 2", file=sys.stderr)
    return 2.0


def _load(args):
    """The space file of `args`, once its base point is known to be a vertex."""
    space = gallery.load_space(args.space)
    if not 0 <= args.o < space.n:
        raise NoBasePoint(f"--base {args.o} is outside the vertices 0..{space.n - 1}")
    return space


def _cmd_gen(args):
    spec = gallery.GallerySpec(
        kind=args.kind,
        size=args.n,
        eta=args.eta,
        resolution=args.resolution,
        r_max=args.r_max,
    )
    space = gallery.generate(spec)
    gallery.save_space(space, args.out)
    print(f"wrote {args.out}: {space.n} vertices, {len(space.edges)} edges")
    return 0


def _cmd_profile(args):
    space = _load(args)
    profile = verify.Profile(space)
    print(f"C_D {profile.doubling.C_D:.6g}")
    print(f"Q {profile.doubling.Q:.6g}")
    eta = verify.eta_fit(space, args.o)
    print(f"eta {eta:.6g}")
    print(f"C_o {verify.reverse_doubling_fit(space, args.o, eta):.6g}")
    try:
        ah = profile.ahlfors()
        print(f"ahlfors_Q {ah.Q:.6g}")
        print(f"ahlfors_C_A {ah.C_A:.6g}")
    except NotAhlfors as exc:
        print(f"ahlfors not_regular ({exc})")
    return 0


def _cmd_decompose(args):
    space = _load(args)
    kappa = _resolve_kappa(args, space, args.o)
    decomp = cov.kappa_decomposition(space, args.o, kappa)
    covering = cov.expand_covering(space, decomp)
    val = cov.validate_covering(covering, space)
    print(f"kappa {kappa:.6g}")
    print(f"pieces {len(decomp.pieces)}")
    print(f"levels {len(np.unique(decomp.pieces))}")
    print(f"truncated {(decomp.owner < 0).sum() - 1}")
    print(f"Q1_emp {val.Q1_emp}")
    print(f"Q2_emp {val.Q2_emp:.6g}")
    for name, ok in val.axioms_pass.items():
        print(f"{name} {'pass' if ok else 'FAIL'}")
    return 0 if val.all_pass else 2


def _cmd_graph(args):
    space = _load(args)
    kappa = _resolve_kappa(args, space, args.o)
    decomp = cov.kappa_decomposition(space, args.o, kappa)
    covering = cov.expand_covering(space, decomp)
    with _naming_kappas(space, args.o, kappa):
        graph = graph_ineq.build_covering_graph(space, covering)
    iso = graph_ineq.isoperimetric_constant(graph)
    print(f"vertices {graph.n}")
    print(f"edges {len(graph.edges)}")
    print(f"isoperimetric {iso.I:.6g}")
    print(f"poincare_1 {1.0 / iso.I:.6g}")
    print(f"poincare_2 {graph_ineq.poincare_constant(graph, 2):.6g}")
    if args.out:
        _write_dot(graph, args.out)
        print(f"wrote {args.out}")
    return 0


def _write_dot(graph, path):
    lines = ["graph covering {"]
    for i in range(graph.n):
        shape = "box" if graph.boundary[i] else "ellipse"
        lines.append(
            f'  v{i} [label="L{graph.levels[i]} m={graph.vmass[i]:.3g}", shape={shape}];'
        )
    for (a, b), w in zip(graph.edges, graph.emass):
        lines.append(f'  v{a} -- v{b} [label="{w:.3g}"];')
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_verify(args):
    seed = _seed(args)
    space = _load(args)
    family = verify.make_family(space, args.o, seed, count=args.count)
    kappa = _resolve_kappa(args, space, args.o)
    with _naming_kappas(space, args.o, kappa):
        if args.ineq == "weighted-sobolev":
            rep = verify.weighted_sobolev_check(space, args.o, args.s, args.t, family, kappa=kappa)
        elif args.ineq == "hardy":
            rep = verify.hardy_check(space, args.o, args.s, family, kappa=kappa)
        elif args.ineq == "ahlfors":
            rep = verify.ahlfors_sobolev_check(space, args.o, args.s, args.t, family, kappa=kappa)
        elif args.ineq == "local-sobolev":
            R = max(space.diameter() / 4.0, 2 * space.resolution)
            rep = verify.local_sobolev_check(space, args.o, R, args.s, args.t, family)
        else:  # annulus
            R = max(space.diameter() / 8.0, 4 * space.resolution)
            A = _largest_annulus_component(space, args.o, R, 2.0)
            rep = verify.annulus_piece_check(
                space, args.o, R, 2.0, 0.5, A, args.s, args.t, family, flavor="poincare"
            )
    reports = [rep]
    if args.out:
        if args.format == "json":
            prov = {
                "seed": seed,
                "space": verify.space_hash(space),
                "o": args.o,
                "s": args.s,
                "t": rep.t,
                "kappa": kappa,
                "count": args.count,
            }
            verify.write_reports_json(reports, args.out, prov, zero_seconds=args.deterministic_output)
        else:
            verify.write_reports_csv(reports, args.out, zero_seconds=args.deterministic_output)
        print(f"wrote {args.out}")
    verdict = "pass" if rep.passed else "FAIL"
    print(
        f"{rep.inequality} s={rep.s:g} t={rep.t:g} empirical={rep.empirical_best:.6g} "
        f"theoretical={rep.theoretical:.6g} {verdict}"
    )
    return 0 if rep.passed else 2


def _largest_annulus_component(space, o, R, alpha):
    ann = space.annulus(o, R, alpha * R)
    if len(ann) == 0:
        raise NotInAnnulus(f"the annulus [{R:g}, {alpha * R:g}) around {o} is empty")
    _, labels = space.induced_components(ann)
    return ann[labels == int(np.argmax(np.bincount(labels)))]


_PALETTE = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
]


def _cmd_render(args):
    space = _load(args)
    if space.coords is None:
        print("render: space has no 2D coords", file=sys.stderr)
        return 1
    owner = np.full(space.n, -1)
    if args.kappa is not None:
        kappa = _resolve_kappa(args, space, args.o)
        owner = cov.kappa_decomposition(space, args.o, kappa).owner
    # piece i takes the i-th palette colour, cyclically; o and the truncated tail grey
    color = np.array([*_PALETTE, "#333333"])[np.where(owner >= 0, owner % len(_PALETTE), -1)]
    xy = space.coords
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    size = 800.0
    pad = 20.0

    def pt(p):
        q = (p - lo) / span * (size - 2 * pad) + pad
        return q[0], size - q[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}">'
    ]
    for (u, v), _l in zip(space.edges, space.lengths):
        x1, y1 = pt(xy[u])
        x2, y2 = pt(xy[v])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#bbbbbb" stroke-width="0.5"/>'
        )
    r = max(1.0, (size - 2 * pad) / (4.0 * math.sqrt(space.n)))
    for i in range(space.n):
        x, y = pt(xy[i])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{color[i]}"/>')
    parts.append("</svg>")
    with open(args.out, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    print(f"wrote {args.out}")
    return 0


def _add_base(parser):
    """`--base` names the base point o, with `--o` as a hidden alias; `-o`
    names the output file."""
    parser.add_argument(
        "--base", dest="o", type=int, default=0, metavar="VERTEX", help="base point o"
    )
    parser.add_argument("--o", dest="o", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def build_parser():
    p = argparse.ArgumentParser(prog="pilab")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a benchmark space")
    g.add_argument("--kind", required=True, choices=gallery.GALLERY_KINDS)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--eta", type=float, default=2.0)
    g.add_argument("--resolution", type=float, default=0.25)
    g.add_argument("--r-max", type=float, default=40.0)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    pr = sub.add_parser("profile", help="doubling / reverse-doubling / Ahlfors fits")
    pr.add_argument("--space", required=True)
    _add_base(pr)
    pr.set_defaults(fn=_cmd_profile)

    de = sub.add_parser("decompose", help="kappa-decomposition and covering validation")
    de.add_argument("--space", required=True)
    _add_base(de)
    de.add_argument("--kappa", type=_positive_kappa, default=2.0, help=_KAPPA_HELP)
    de.set_defaults(fn=_cmd_decompose)

    gr = sub.add_parser("graph", help="covering graph constants")
    gr.add_argument("--space", required=True)
    _add_base(gr)
    gr.add_argument("--kappa", type=_positive_kappa, default=2.0, help=_KAPPA_HELP)
    gr.add_argument("-o", "--out", default=None, help="optional DOT output")
    gr.set_defaults(fn=_cmd_graph)

    ve = sub.add_parser("verify", help="run an inequality check")
    ve.add_argument("--space", required=True)
    ve.add_argument(
        "--ineq",
        required=True,
        choices=["weighted-sobolev", "hardy", "local-sobolev", "ahlfors", "annulus"],
    )
    _add_base(ve)
    ve.add_argument("--s", type=_exponent, default=1.0)
    ve.add_argument("--t", type=_exponent, help="default s; --ineq hardy takes t = s, ignoring --t")
    ve.add_argument("--kappa", type=_positive_kappa, default=2.0, help=_KAPPA_HELP)
    ve.add_argument("--seed", type=_seed_value, default=None)
    ve.add_argument("--count", type=_family_count, default=200)
    ve.add_argument("--format", choices=["csv", "json"], default="csv")
    ve.add_argument("--deterministic-output", action="store_true")
    ve.add_argument("--threads", type=int, default=0, help="accepted and ignored: execution is sequential")
    ve.add_argument("-o", "--out", dest="out", default=None)
    ve.set_defaults(fn=_cmd_verify)

    re = sub.add_parser("render", help="SVG rendering of a 2D space")
    re.add_argument("--space", required=True)
    _add_base(re)
    re.add_argument("--kappa", type=_positive_kappa, default=None, help=_KAPPA_HELP)
    re.add_argument("-o", "--out", dest="out", required=True)
    re.set_defaults(fn=_cmd_render)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if getattr(args, "t", None) is None and hasattr(args, "s"):
        args.t = args.s
    elif getattr(args, "ineq", None) == "hardy" and args.t != args.s:
        print("warning: --ineq hardy takes t = s; --t is ignored", file=sys.stderr)
    try:
        return args.fn(args)
    except (PilabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
