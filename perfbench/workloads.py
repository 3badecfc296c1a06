"""Workloads of the `pilab verify` benchmark.

A workload is one gallery space plus the `pilab verify` calls made on it.
Setup generates the space with `pilab.gallery` and saves it as a space file;
the calls then see only that file and their command-line flags. The reasons
each workload was chosen are in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Flags that select the inequality of a call.
CHECKS = {
    "hardy": ("--ineq", "hardy", "--s", "1"),
    "weighted-sobolev": ("--ineq", "weighted-sobolev", "--s", "1", "--t", "2"),
    "annulus": ("--ineq", "annulus"),
}


@dataclass(frozen=True)
class Space:
    """One space file: a `pilab.gallery.GallerySpec` and its base point.

    `base` is a vertex index, or "sector_union_origin" for the grid point at
    the origin of a sector union, which is looked up after generating.
    """

    stem: str
    spec: dict
    base: object = 0
    kappa: float = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    space: Space
    # One batch runs these checks in order; a check named twice runs twice.
    checks: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-quadrant",
            Space("grid", {"kind": "grid_quadrant", "size": 64}),
            ("hardy", "weighted-sobolev", "annulus"),
        ),
        Workload(
            "sector-fine",
            Space(
                "sector",
                {"kind": "sector_union", "resolution": 0.25},
                base="sector_union_origin",
                kappa=1.2,
            ),
            ("hardy", "weighted-sobolev"),
        ),
        Workload(
            "cone-annulus",
            Space("cone", {"kind": "cone_grid", "size": 101, "eta": 2.0}),
            # The annulus call takes 15-21 s, so a run holds one batch. The
            # short calls run four times a batch, twice before the annulus
            # call and twice after, so that their fastest repeat is taken
            # from samples far apart in time.
            ("hardy", "weighted-sobolev") * 2 + ("annulus",) + ("hardy", "weighted-sobolev") * 2,
        ),
    )
}

# Calls that fail at the seed commit: weighted-sobolev on radial profiles
# with large eta passes with theoretical=inf (eta=12) or raises
# OverflowError (eta=20). Every calls process runs them once, untimed, after
# its timed calls, so the defects show in every run without failing the
# timed calls.
PROBES = tuple(
    (
        Space(f"eta{eta}", {"kind": "radial_profile", "size": 256, "eta": float(eta)}),
        "weighted-sobolev",
    )
    for eta in (12, 20)
)
