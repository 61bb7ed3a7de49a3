"""Seeded scenario files for the relqopt benchmark.

Every draw comes from the `random.Random` passed in, so one seed gives the
same files.  Valid files stay inside each key's documented domain; invalid
files break exactly one rule that the scenario loader rejects.
"""

from __future__ import annotations

import math

PRESETS = ("leo500", "leo1000", "gto", "geo", "lunar-distance", "au")
GROUPS = ("geometry", "wigner", "gravitomagnetic", "interferometry", "qft", "diffusion", "bell")
INVALID_KINDS = ("unknown_key", "eccentricity", "station_line")
EARTH_RADIUS = 6378137.0


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _station(rng):
    return f"{rng.uniform(-80, 80):.4f} {rng.uniform(-180, 180):.4f} {rng.uniform(0, 3000):.1f}"


def valid_sections(rng, workers=1):
    """Sections of a valid scenario as {section: {key: text}}.

    A file with more than one Monte Carlo stream always keeps the bell group
    on, so its streams are really simulated.
    """
    s = {"mission": {"preset": rng.choice(PRESETS),
                     "source": rng.choice(("ground", "satellite"))}}
    if rng.random() < 0.25:
        a = EARTH_RADIUS + _log_uniform(rng, 400e3, 36000e3)
        e_max = min(0.3, 1.0 - (EARTH_RADIUS + 200e3) / a)
        s["orbit"] = {
            "semi_major_axis": f"{a:.1f}",
            "eccentricity": f"{rng.uniform(0.0, e_max):.6f}",
            "inclination": f"{rng.uniform(0, 98):.3f}",
            "raan": f"{rng.uniform(0, 360):.3f}",
            "arg_perigee": f"{rng.uniform(0, 360):.3f}",
            "mean_anomaly": f"{rng.uniform(0, 360):.3f}",
        }
    n_stations = rng.choice((0, 0, 1, 2))
    if n_stations:
        s["stations"] = {f"station{i + 1}": _station(rng) for i in range(n_stations)}
    if rng.random() < 0.6:
        s["link"] = {
            "wavelength": f"{rng.uniform(400e-9, 1600e-9):.6g}",
            "fibre_delay": f"{rng.uniform(1e-6, 50e-6):.6g}",
            "fibre_index": f"{rng.uniform(1.0, 1.5):.4f}",
            "detector_resolution": f"{_log_uniform(rng, 100e-15, 1e-12):.6g}",
            "analyzer_switch_time": f"{_log_uniform(rng, 1e-9, 50e-9):.6g}",
        }
    if rng.random() < 0.5:
        s["geometry"] = {"relative_speed": f"{rng.uniform(1e3, 3e4):.3f}",
                         "kappa": f"{rng.uniform(1.0, 2.0):.4f}"}
        if rng.random() < 0.5:
            s["geometry"]["separation"] = f"{_log_uniform(rng, 100e3, 5e6):.1f}"
    s["bell"] = {
        "visibility": f"{rng.uniform(0.75, 1.0):.6f}",
        "photon_budget": str(int(_log_uniform(rng, 1e3, 1e9))),
        "seed": str(rng.randrange(2**32)),
        "workers": str(workers),
    }
    if rng.random() < 0.5:
        s["diffusion"] = {"drift_d": f"{_log_uniform(rng, 1e-9, 1e-7):.6g}",
                          "diffusion_c": f"{_log_uniform(rng, 1e-10, 1e-8):.6g}"}
    if rng.random() < 0.5:
        s["qft"] = {"berry_gap": f"{_log_uniform(rng, 1e5, 1e7):.6g}",
                    "berry_g": f"{rng.uniform(0.1, 0.5):.4f}",
                    "retroreflector": rng.choice(("on", "off"))}
    if rng.random() < 0.5:
        off = [g for g in GROUPS if rng.random() < 0.3 and not (g == "bell" and workers > 1)]
        if len(off) == len(GROUPS):
            off.pop()
        s["effects"] = {g: "off" for g in off}
    return s


def break_sections(rng, s, kind):
    """Make one rule fail: an unknown key, an eccentricity outside [0, 1),
    or a station line without three numbers."""
    if kind == "unknown_key":
        section = rng.choice(sorted(s))
        s[section][rng.choice(("wavelenght", "threads", "colour", "sead"))] = "1"
    elif kind == "eccentricity":
        s["orbit"] = {"semi_major_axis": f"{EARTH_RADIUS + 800e3:.1f}",
                      "eccentricity": f"{rng.uniform(1.0, 3.0):.4f}"}
    elif kind == "station_line":
        parts = _station(rng).split()
        bad = rng.choice((parts[:2], [parts[0], "north", parts[2]], parts + ["7"]))
        s.setdefault("stations", {})["station1"] = " ".join(bad)
    else:
        raise ValueError(kind)
    return s


def render(sections):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)
