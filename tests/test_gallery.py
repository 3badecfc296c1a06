import json
import math

import numpy as np
import pytest

from pilab.cli import main
from pilab.errors import InvalidSpec, SchemaError
from pilab.gallery import (
    GallerySpec,
    cone_grid,
    generate,
    grid_quadrant,
    load_space,
    path_space,
    radial_profile,
    save_space,
    sector_union,
    sector_union_origin,
    spaces_equal,
)


def test_grid_quadrant_counts():
    sp = grid_quadrant(8)
    assert sp.n == 81
    assert len(sp.edges) == 2 * 8 * 9
    assert sp.resolution == 1.0
    assert np.all(sp.measure == 1.0)


def test_radial_profile_masses():
    sp = radial_profile(6, 2.0)
    assert list(sp.measure) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert sp.dist(0, 5) == 5.0


def test_cone_grid_structure():
    sp = cone_grid(8, 2.0)
    # ring r carries ceil(4r) points plus the apex
    assert sp.n == 1 + sum(4 * r for r in range(1, 9))
    assert sp.dist(0, 1) == 1.0


def test_cone_grid_annuli_connected():
    from scipy.sparse import csgraph

    sp = cone_grid(16, 2.0)
    d = sp.dist_from(0)
    for R in (2.0, 4.0, 8.0):
        ann = np.flatnonzero((d >= R / 2) & (d < 2 * R))
        sub = sp.adjacency[np.ix_(ann, ann)]
        ncomp, _ = csgraph.connected_components(sub, directed=False)
        assert ncomp == 1


def test_sector_union_membership():
    sp = sector_union(1.0, r_max=10.0)
    pts = {tuple(np.round(c, 6)) for c in sp.coords}
    assert (0.0, 0.0) in pts
    assert (5.0, 0.0) in pts  # first-quadrant sector
    assert (11.0, 0.0) not in pts  # beyond r_max
    assert (-5.0, -5.0) in pts  # third-quadrant sector, r < 17 but on block edge ray
    assert (0.0, -9.0) not in pts  # inside the removed open block


def test_sector_union_origin():
    sp = sector_union(0.5, r_max=6.0)
    o = sector_union_origin(sp)
    assert np.allclose(sp.coords[o], (0.0, 0.0))


def test_generate_and_spec_validation():
    assert generate(GallerySpec("grid_quadrant", size=4)).n == 25
    with pytest.raises(InvalidSpec):
        GallerySpec("unknown")
    with pytest.raises(InvalidSpec):
        GallerySpec("grid_quadrant", size=1)
    with pytest.raises(InvalidSpec):
        GallerySpec("sector_union", resolution=0.0)
    with pytest.raises(InvalidSpec):
        GallerySpec("radial_profile", eta=0.5)


def test_generate_deterministic():
    a = generate(GallerySpec("cone_grid", size=8))
    b = generate(GallerySpec("cone_grid", size=8))
    assert spaces_equal(a, b)


def test_save_load_round_trip(tmp_path):
    sp = radial_profile(10, 1.5)
    path = tmp_path / "space.json"
    save_space(sp, path)
    assert spaces_equal(sp, load_space(path))


def test_schema_errors(tmp_path):
    path = tmp_path / "bad.json"

    def write(doc):
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    write("{not json")
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "json"

    write({"edges": []})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "vertices"

    write({"vertices": 2, "edges": [[0, 5, 1.0]], "measure": [1, 1]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "edges"

    write({"vertices": 2, "edges": [[0, 1, 1.0]], "measure": [1]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "measure"

    write({"vertices": 2, "edges": [[0, 1, 1.0]], "measure": [1, 1], "coords": [[0, 0]]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "coords"


def test_load_space_round_trips_gallery_spaces(tmp_path):
    path = tmp_path / "space.json"
    for sp in (grid_quadrant(12), sector_union(1.0, r_max=6.0), cone_grid(10, 2.0)):
        save_space(sp, path)
        assert spaces_equal(sp, load_space(path))


# A valid three-vertex path; each malformed case replaces some of its fields.
PATH_DOC = {
    "vertices": 3,
    "edges": [[0, 1, 1.0], [1, 2, 1.0]],
    "measure": [1, 1, 1],
    "coords": [[0, 0], [1, 0], [2, 0]],
}
# (fields replaced, field named by the SchemaError, index of the first bad entry)
MALFORMED = {
    "endpoint_string": ({"edges": [[0, 1, 1.0], [1, "a", 1.0]]}, "edges", 1),
    "endpoint_float": ({"edges": [[0, 1, 1.0], [1.5, 2, 1.0]]}, "edges", 1),
    "endpoint_bool": ({"edges": [[0, 1, 1.0], [True, 2, 1.0]]}, "edges", 1),
    "endpoint_beyond_int64": ({"edges": [[0, 1, 1.0], [1, 10**30, 1.0]]}, "edges", 1),
    "length_null": ({"edges": [[0, 1, 1.0], [1, 2, None]]}, "edges", 1),
    "length_nan": ({"edges": [[0, 1, 1.0], [1, 2, math.nan]]}, "edges", 1),
    "length_infinity": ({"edges": [[0, 1, 1.0], [1, 2, math.inf]]}, "edges", 1),
    "length_beyond_float": ({"edges": [[0, 1, 1.0], [1, 2, 10**400]]}, "edges", 1),
    "length_zero_after_bad_endpoint": ({"edges": [[0, 3, 1.0], [1, 2, 0]]}, "edges", 0),
    "edge_not_a_list": ({"edges": [[0, 1, 1.0], 7]}, "edges", 1),
    "edge_a_string": ({"edges": [[0, 1, 1.0], "abc"]}, "edges", 1),
    "edge_too_short": ({"edges": [[0, 1, 1.0], [1, 2]]}, "edges", 1),
    "edges_not_a_list": ({"edges": 7}, "edges", None),
    "measure_null": ({"measure": [1, None, 1]}, "measure", 1),
    "measure_nan": ({"measure": [1, math.nan, 1]}, "measure", 1),
    "measure_not_a_list": ({"measure": 7}, "measure", None),
    "coords_ragged": ({"coords": [[0, 0], [1], [2, 0]]}, "coords", 1),
    "coords_string": ({"coords": [[0, 0], [1, "x"], [2, 0]]}, "coords", 1),
    "vertices_bool": ({"vertices": True}, "vertices", None),
}


def test_path_document_loads(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(PATH_DOC))
    sp = load_space(path)
    assert sp.n == 3 and sp.dist(0, 2) == 2.0


@pytest.mark.parametrize("fields, field, entry", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_space_file_raises_schema_error(tmp_path, capsys, fields, field, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**PATH_DOC, **fields}))
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == field
    if entry is not None:
        assert f": entry {entry} " in str(exc.value)
    assert main(["verify", "--space", str(path), "--ineq", "hardy"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_path_space_utility():
    sp = path_space(11, step=0.1, x0=-0.5)
    assert abs(sp.dist(0, 10) - 1.0) < 1e-12
    assert abs(sp.coords[5][0]) < 1e-12
