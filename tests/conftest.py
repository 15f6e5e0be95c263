import math
import time

import numpy as np
import pytest

from rigidfold import (
    FoldSchedule,
    RelaxSettings,
    SpringConfig,
    Stage,
    crane_schedule,
    flat_state_seed,
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    generate_waterbomb_tessellation,
    relax,
    run_schedule,
)
from oracles import waterbomb_symmetric_oracle
from rigidfold.pattern import MOUNTAIN


@pytest.fixture(scope="session")
def miura33():
    return generate_miura(3, 3)


@pytest.fixture(scope="session")
def miura11():
    return generate_miura(1, 1)


@pytest.fixture(scope="session")
def waterbomb():
    return generate_waterbomb_base()


@pytest.fixture(scope="session")
def wb_tess():
    return generate_waterbomb_tessellation(5, 3)


@pytest.fixture(scope="session")
def crane():
    return generate_crane()


def wb_symmetric_state(p, theta):
    rm, rv = waterbomb_symmetric_oracle(theta)
    s = np.zeros(8)
    s[p.meta["mountains"]] = rm
    s[p.meta["valleys"]] = rv
    return s


def drive_miura_to_flat_fold(p, seed_deg, body_steps, body_eps=1e-13):
    """Fold the sheet by driving rho1 to -175 deg, then pin every crease at
    its +-pi limit for the exactly flat-folded endpoint (which is an exactly
    compatible state, so the final residual is at machine level)."""
    i1 = p.meta["driven_crease"]
    seed = flat_state_seed(p, math.radians(seed_deg), eps=body_eps)
    body = FoldSchedule(
        (Stage(targets={i1: math.radians(-175.0)}, steps=body_steps),)
    )
    traj = run_schedule(p, seed, body, eps=body_eps)
    s = traj.states[-1]
    finish = FoldSchedule((Stage(
        targets={i: math.copysign(math.pi, s[i]) for i in range(p.n_creases)},
        steps=1,
    ),))
    tail = run_schedule(p, s, finish, eps=1e-9)
    for state, res, iters in zip(
        tail.states[1:], tail.residuals[1:], tail.newton_iters[1:]
    ):
        traj.append(state, res, iters)
    return seed, traj


@pytest.fixture(scope="session")
def miura_run(miura33):
    """The 3x3-cell sheet driven 0 to -180 deg in 5 degree steps."""
    t0 = time.time()
    seed, traj = drive_miura_to_flat_fold(miura33, 1.0, 35)
    wall = time.time() - t0
    return {"traj": traj, "seed": seed, "wall": wall,
            "rho1": miura33.meta["driven_crease"],
            "rho2": miura33.meta["follower_crease"]}


@pytest.fixture(scope="session")
def miura_run_fine(miura33):
    """Same drive at 1 degree steps for the Poisson-ratio refinement check."""
    _, traj = drive_miura_to_flat_fold(miura33, 0.25, 175)
    return {"traj": traj, "rho1": miura33.meta["driven_crease"]}


@pytest.fixture(scope="session")
def crane_run(crane):
    schedule = crane_schedule(crane)
    t0 = time.time()
    traj = run_schedule(crane, np.zeros(crane.n_creases), schedule)
    wall = time.time() - t0
    return {"traj": traj, "schedule": schedule, "wall": wall}


@pytest.fixture(scope="session")
def wb_bistability(waterbomb):
    """Both spring-relaxation searches for the symmetric rest angles."""
    p = waterbomb
    rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
    rest = np.zeros(8)
    rest[p.meta["mountains"]] = rm
    rest[p.meta["valleys"]] = rv
    cfg = SpringConfig.per_unit_length(p, 1.0, rest)
    runs = {}
    for name, theta in (("upward", 3 * math.pi / 4), ("downward", 0.0)):
        t0 = time.time()
        runs[name] = relax(p, cfg, RelaxSettings(), wb_symmetric_state(p, theta))
        runs[name + "_wall"] = time.time() - t0
    runs["cfg"] = cfg
    runs["rest"] = rest
    return runs


@pytest.fixture(scope="session")
def tess_runs(wb_tess):
    """Assignment-seeded relaxations for the three tessellation rest angles."""
    p = wb_tess
    seed = flat_state_seed(p, math.radians(1.0))
    out = []
    for r0 in (math.pi / 2, 3 * math.pi / 4, 7 * math.pi / 8):
        rest = np.array(
            [-r0 if c.assignment == MOUNTAIN else r0 for c in p.creases]
        )
        cfg = SpringConfig.per_unit_length(p, 1.0, rest)
        t0 = time.time()
        result = relax(p, cfg, RelaxSettings(max_steps=2500), seed)
        out.append({"r0": r0, "cfg": cfg, "result": result,
                    "wall": time.time() - t0})
    return out
