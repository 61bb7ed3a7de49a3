"""pass_sweep: one seeded satellite pass over a ground station.

At each orbit sample: `orbits.propagate` and `orbits.station_state`; the
satellite's boost; `wigner.wigner_angle` for a fan of K beams around the
downlink; `gravitomagnetism.transport_ray` along the downlink through the
Lense-Thirring field of the Earth's spin, in S steps.  K = S = 8 gives
Wigner and transport each 30-60% of a sample.  This exercises the Wigner
and transport kernels and skips scenario parsing and process start-up.

Checks: transported khat and fhat are unit vectors and orthogonal to 1e-9;
every angle is finite; on beams whose polar angle lies in the range of
test_exact_angle_matches_derived_first_order_connection in
tests/test_wigner.py, |xi - beta cot(theta) sin(theta_b) sin(phi - phi_b)|
<= 30 beta^2.
"""

from __future__ import annotations

import math
import random

import numpy as np

from relqopt import gravitomagnetism, orbits, wigner
from relqopt.constants import C_LIGHT, EARTH, GRAVITATIONAL_G

K_BEAMS = 8
S_STEPS = 8
N_SAMPLES = 120
PASS_HALF_S = 240.0
FAN_SPREAD = 0.05
THETA_RANGE = (0.25, 0.5 * math.pi - 0.05)
UNIT_TOL = 1e-9

_SPIN = EARTH.angular_momentum
_LT = GRAVITATIONAL_G / C_LIGHT**3
_EG = GRAVITATIONAL_G * EARTH.mass / C_LIGHT**2


def lense_thirring(pos):
    """Gravitomagnetic dipole of the Earth's spin (+z) and the Newtonian
    gravitoelectric term, in the 1/m units that GravField uses."""
    x, y, z = float(pos[0]), float(pos[1]), float(pos[2])
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    w = _LT / (r2 * r)
    jr = 3.0 * _SPIN * z / r2
    g = -_EG / (r2 * r)
    return gravitomagnetism.GravField(
        omega=(w * jr * x, w * jr * y, w * (jr * z - _SPIN)), eg=(g * x, g * y, g * z))


def _unit(v):
    return v / math.sqrt(float(v @ v))


def _angles(v):
    """Polar and azimuth angles of a direction."""
    return math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(v[1], v[0])


def _perp(k, psi):
    """Unit vector orthogonal to k at angle psi about it."""
    a = np.array([1.0, 0.0, 0.0]) if abs(k[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = _unit(np.cross(k, a))
    e2 = np.cross(k, e1)
    return _unit(math.cos(psi) * e1 + math.sin(psi) * e2)


class Workload:
    min_ops = 0
    first_order_checks = 0

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        deg = math.radians
        spec = orbits.OrbitSpec(
            semi_major_axis=EARTH.radius + rng.uniform(450e3, 1200e3),
            eccentricity=rng.uniform(0.0, 0.01),
            inclination=deg(rng.uniform(30.0, 98.0)),
            raan=deg(rng.uniform(0.0, 360.0)),
            arg_perigee=deg(rng.uniform(0.0, 360.0)),
            mean_anomaly_epoch=deg(rng.uniform(0.0, 360.0)),
        )
        # The pass is centred where the satellite is south of the equator, so
        # the downlink points into the theta range of the first-order check.
        t_mid = rng.uniform(0.0, spec.period())
        if orbits.propagate(spec, t_mid).position[2] > 0.0:
            t_mid += 0.5 * spec.period()
        sub = np.asarray(orbits.propagate(spec, t_mid).position)
        lat = math.asin(sub[2] / math.sqrt(float(sub @ sub)))
        lon = math.atan2(sub[1], sub[0]) - EARTH.rotation_rate * t_mid
        station = orbits.GroundStation(
            latitude=max(-1.5, min(1.5, lat + deg(rng.uniform(-2.0, 2.0)))),
            longitude=lon + deg(rng.uniform(-2.0, 2.0)),
            altitude=rng.uniform(0.0, 2500.0))
        self.spec, self.station = spec, station
        times = np.linspace(t_mid - PASS_HALF_S, t_mid + PASS_HALF_S, N_SAMPLES)
        return [(float(t), [[rng.gauss(0.0, FAN_SPREAD) for _ in range(3)] for _ in range(K_BEAMS)],
                 rng.uniform(0.0, 2.0 * math.pi)) for t in times]

    def op(self, item):
        t, offsets, psi = item
        sat = orbits.propagate(self.spec, t)
        gs = orbits.station_state(self.station, t)
        pos = np.asarray(sat.position)
        los = np.asarray(gs.position) - pos
        distance = math.sqrt(float(los @ los))
        k0 = los / distance
        beta = np.asarray(sat.velocity) / C_LIGHT
        boost = wigner.LorentzMatrix.boost(tuple(beta))
        beams = [_unit(k0 + np.asarray(off)) for off in offsets]
        angles = [wigner.wigner_angle(boost, wigner.FourMomentum(1.0, tuple(k))) for k in beams]
        start = gravitomagnetism.RayState(tuple(pos), tuple(k0), tuple(_perp(k0, psi)))
        end = gravitomagnetism.transport_ray(start, lense_thirring, distance, S_STEPS)
        return beta, beams, angles, end

    def check(self, item, out):
        beta_vec, beams, angles, end = out
        problems = []
        k, f = np.asarray(end.khat), np.asarray(end.fhat)
        for name, err in (("|khat|", abs(float(k @ k) ** 0.5 - 1.0)),
                          ("|fhat|", abs(float(f @ f) ** 0.5 - 1.0)),
                          ("khat.fhat", abs(float(k @ f)))):
            if not err <= UNIT_TOL:
                problems.append(f"{name} off by {err:.3g}")
        beta = math.sqrt(float(beta_vec @ beta_vec))
        theta_b, phi_b = _angles(beta_vec)
        for khat, xi in zip(beams, angles):
            if not (math.isfinite(xi) and -math.pi < xi <= math.pi):
                problems.append(f"wigner angle {xi!r} out of range")
                continue
            theta, phi = _angles(khat)
            if THETA_RANGE[0] <= theta <= THETA_RANGE[1]:
                self.first_order_checks += 1
                first = beta / math.tan(theta) * math.sin(theta_b) * math.sin(phi - phi_b)
                if not abs(xi - first) <= 30.0 * beta * beta:
                    problems.append(f"wigner angle {xi:.6g} vs first order {first:.6g}")
        return problems
