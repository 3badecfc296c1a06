"""Build the example spaces and measure their volume-growth profiles.

Every later estimate is driven by three measured quantities: the doubling
constant C_D (and its exponent Q = log2 C_D), the reverse-doubling lower
growth exponent at a base point, and an Ahlfors regularity constant when
ball mass is comparable to r^Q uniformly.
"""

from pilab.gallery import cone_grid, grid_quadrant, radial_profile, sector_union, sector_union_origin
from pilab.verify import Profile, reverse_doubling_fit


def main():
    spaces = [
        ("grid_quadrant(32)", grid_quadrant(32), 0),
        ("radial_profile(256, eta=2)", radial_profile(256, 2.0), 0),
        ("cone_grid(64, eta=2)", cone_grid(64, 2.0), 0),
    ]
    sec = sector_union(0.5)
    spaces.append(("sector_union(0.5)", sec, sector_union_origin(sec)))

    for name, sp, o in spaces:
        profile = Profile(sp)
        prof = profile.doubling
        c2 = reverse_doubling_fit(sp, o, 2.0)
        print(f"{name}: {sp.n} vertices, diameter {sp.diameter():.1f}")
        print(f"  doubling C_D = {prof.C_D:.3f}  (Q = {prof.Q:.3f})")
        print(f"  reverse doubling C_o at ratio 2: {c2:.3f}")
        try:
            ah = profile.ahlfors()
            print(f"  Ahlfors fit: Q = {ah.Q:.3f}, C_A = {ah.C_A:.2f}")
        except Exception as exc:
            print(f"  Ahlfors fit unavailable: {exc}")
        print()


if __name__ == "__main__":
    main()
