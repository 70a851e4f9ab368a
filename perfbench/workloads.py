"""Seeded operations of the three benchmark workloads and their checks.

An operation is one `lipfree` CLI call (argv strings and spec files only)
or, where no subcommand exists, one public library call.  Each workload is
a fixed cycle of operation shapes (subcommand, family and its parameters,
size, support size), the same in every cycle; the seed picks only the
contents (supports, coefficients, random metrics, dendrogram trees,
orderings).  So every seed does about the same work, and every complete
cycle the same mix of it, however many cycles a run completes.

Every check recomputes the answer by a route independent of the code path
being timed, and returns an error message or None.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from lipfree import constructions, metric_core, norm_engine, space_catalog

WORKLOADS = ("norm-dense", "norm-sparse", "construct-verify")

# operations in one cycle of shapes; every cycle of a workload does the same mix
CYCLE = {"norm-dense": 30, "norm-sparse": 20, "construct-verify": 23}

# the uniform family's distance is a shape, not content: how heavy its
# fractions are moves the simplex time by up to 1.8 times
UNIFORM_SCALES = ("1", "3/2", "2/3", "5/2", "7/3")


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is "cli" (``args`` is the argv) or "plan" (``args`` is
    (case, family label, pairs, blocks, coefficients)); ``expect`` holds
    what the check needs beyond the output.
    """

    kind: str
    args: tuple
    expect: dict


# --------------------------------------------------------------------------
# running an operation
# --------------------------------------------------------------------------

BUILDERS = {
    "accum": "radii_accumulation",
    "bounded": "radii_bounded_separated",
    "unbounded": "radii_unbounded",
    "udelta": "radii_unbounded_delta",
    "ultra": "radii_ultrametric",
}


def run_plan_op(case: str, label: str, pairs: int, blocks: int, coeffs: list) -> str:
    """Build a plan and run the two verifiers that no subcommand exposes.

    Every function is looked up on its module at call time, so a traced
    run sees the same calls.
    """
    family = space_catalog.parse_family(label)
    plan = getattr(constructions, BUILDERS[case])(family, pairs)
    partition = constructions.IndexPartition.round_robin(blocks, plan.pair_count)
    linf = constructions.verify_linfty_isometry(plan, partition, coeffs)
    out = {
        "plan": constructions.plan_to_json(plan),
        "linfty": [str(linf.lip), str(linf.lower), str(linf.upper)],
    }
    if plan.exact:
        proj = constructions.verify_projection(plan)
        out["projection"] = [proj.basis_reproduced, proj.lipschitz_ok, proj.n_pairs]
    return json.dumps(out) + "\n"


# --------------------------------------------------------------------------
# input generation
# --------------------------------------------------------------------------


def _rational(rng: random.Random, max_num: int = 9, max_den: int = 6) -> Fraction:
    num = rng.randint(1, max_num) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, max_den))


def _element_json(points, coefs) -> str:
    return json.dumps([{"point": p, "coef": str(c)} for p, c in zip(points, coefs)])


def _weights_metric(rng: random.Random, n: int):
    # every entry in [1, 2], so each triangle inequality holds
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, 8)
            dist[i][j] = dist[j][i] = 1 + Fraction(rng.randint(0, den), den)
    return dist


def _l1_plane_metric(rng: random.Random, n: int):
    den = rng.choice((2, 3, 4, 6))
    cells = rng.sample(range(400), n)
    pts = [(Fraction(c % 20, den), Fraction(c // 20, den)) for c in cells]
    return [
        [abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts
    ]


def _write_spec(workdir: str, name: str, dist) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": len(dist), "dist": [[str(v) for v in row] for row in dist]}, handle)
    return path


def _dendro(rng: random.Random, depth: int) -> str:
    # the tree is seeded; its depth is part of the shape
    return f"dendro:{rng.randint(1, 999)}:{depth}"


def _norm_dense(rng: random.Random, index: int, workdir: str) -> Op:
    sizes = (16, 18, 20, 22, 24)
    kinds = ("uniform", "remark", "dendro", "convline", "file-weights", "file-l1")
    slot = index % CYCLE["norm-dense"]
    size = slot // 6
    n = sizes[size]
    kind = kinds[slot % 6]
    m = n * (4, 5, 6)[(size + slot) % 3] // 8  # half to three quarters
    dist = None
    if kind == "uniform":
        label = f"uniform:{UNIFORM_SCALES[size]}:{n}"
    elif kind == "remark":
        label = f"remark:{2 + size}:{n}"
    elif kind == "dendro":
        label = f"{_dendro(rng, 4 + size)}:{n}"
    elif kind == "convline":
        label = f"convline:{n}"
    else:
        make = _weights_metric if kind == "file-weights" else _l1_plane_metric
        dist = make(rng, n)
        label = "file:" + _write_spec(workdir, f"dense-{index}.json", dist)
    points = sorted(rng.sample(range(1, n), m))
    coefs = [_rational(rng) for _ in points]
    argv = ("norm", "--with-function", "--space", label, "--element", _element_json(points, coefs))
    return Op("cli", argv, {"space": label, "dist": dist, "support": list(zip(points, coefs))})


def _norm_sparse(rng: random.Random, index: int, workdir: str) -> Op:
    sizes = (24, 28, 32, 36, 40)
    families = ("remark:3", "convline", "uniform:1", "dendro")
    slot = index % CYCLE["norm-sparse"]
    family = families[slot % 4]
    n = sizes[slot // 4]
    request = ("norm", "norm-function", "ball-section")[slot % 3]
    if family == "dendro":
        family = _dendro(rng, 4 + slot // 4)
    label = f"{family}:{n}"
    if request == "ball-section":
        x, y = rng.sample(range(1, n), 2)
        a, b = _rational(rng), _rational(rng)
        argv = ("ball-section", "--space", label, "--x", str(x), "--y", str(y))
        return Op("cli", argv, {"space": label, "x": x, "y": y, "ab": (a, b)})
    points = sorted(rng.sample(range(1, n), rng.randint(2, 6)))
    coefs = [_rational(rng) for _ in points]
    argv = ("norm", "--space", label, "--element", _element_json(points, coefs))
    if request == "norm-function":
        argv = argv[:1] + ("--with-function",) + argv[1:]
    return Op("cli", argv, {"space": label, "dist": None, "support": list(zip(points, coefs))})


# (request, case, family, pairs or admissibility N) of one construct-verify
# cycle; "dendro:<depth>" is a seeded tree of that depth.  Ultrametric
# extraction scans far more than the other builders, so its plans are smaller.
_CV_SLOTS = (
    ("verify", "accum", "convline", 10),
    ("verify", "udelta", "geomline", 7),
    ("verify", "udelta", "intline", 4),
    ("verify", "ultra", "dendro:5", 5),
    ("verify", "ultra", "uniform:3/2", 3),
    ("construct", "bounded", "uniform:5/2", 8),
    ("construct", "bounded", "remark:5", 5),
    ("construct", "unbounded", "intline", 9),
    ("plan", "accum", "convline", 6),
    ("plan", "bounded", "uniform:2/3", 3),
    ("plan", "bounded", "remark:5", 10),
    ("plan", "unbounded", "intline", 5),
    ("plan", "udelta", "geomline", 8),
    ("plan", "udelta", "intline", 9),
    ("plan", "ultra", "dendro:7", 6),
    ("plan", "ultra", "uniform:7/3", 4),
) + tuple(
    ("admissibility", None, f"remark:{k}", n) for k, n in zip(range(1, 7), (12, 14, 16, 18, 20, 22))
) + (
    ("admissibility", None, "uniform:1", 16),
)


def _construct_verify(rng: random.Random, index: int, workdir: str) -> Op:
    request, case, label, size = _CV_SLOTS[index % CYCLE["construct-verify"]]
    if label.startswith("dendro:"):
        label = _dendro(rng, int(label.split(":")[1]))
    if request == "admissibility":
        order = sorted(rng.sample(range(1, size + size // 2 + 1), size))
        argv = ("admissibility", "--family", label, "--N", str(size),
                "--ordering", ",".join(map(str, order)))
        return Op("cli", argv, {"family": label, "order": order})
    if request == "construct":
        argv = ("construct", "--family", label, "--case", case, "--N", str(size))
        return Op("cli", argv, {"case": case, "pairs": size})
    if request == "verify":
        coeffs = [_rational(rng) for _ in range(size)]
        argv = ("verify", "--family", label, "--case", case, "--N", str(size),
                "--coeffs", json.dumps([str(c) for c in coeffs]))
        return Op("cli", argv, {"coeffs": coeffs})
    blocks = rng.randint(1, 3)
    coeffs = [_rational(rng) for _ in range(blocks)]
    return Op("plan", (case, label, size, blocks, [str(c) for c in coeffs]), {"case": case})


_GENERATORS = {
    "norm-dense": _norm_dense,
    "norm-sparse": _norm_sparse,
    "construct-verify": _construct_verify,
}


def generate(workload: str, seed: int, count: int, workdir: str) -> list[Op]:
    """The first ``count`` operations of a workload; file specs go to ``workdir``.

    ``count`` should be a multiple of the workload's cycle, so that a loop
    wrapping around the list keeps the cycles whole.
    """
    rng = random.Random(f"{workload}/{seed}")
    make = _GENERATORS[workload]
    return [make(rng, index, workdir) for index in range(count)]


# --------------------------------------------------------------------------
# independent checks
# --------------------------------------------------------------------------


def _oracle_space(label: str, dist) -> metric_core.FiniteMetricSpace:
    """The space from the family oracle (or the generated matrix), bypassing
    truncation and validation."""
    if dist is None:
        parts = label.split(":")
        family = space_catalog.make_family(parts[0], *parts[1:-1])
        n = int(parts[-1])
        dist = [[family.distance(i + 1, j + 1) for j in range(n)] for i in range(n)]
    return metric_core.FiniteMetricSpace(dist=tuple(tuple(row) for row in dist))


def _check_norm(op: Op, out: dict) -> str | None:
    space = _oracle_space(op.expect["space"], op.expect["dist"])
    element = metric_core.FreeElement.from_pairs(op.expect["support"])
    value = Fraction(out["norm"])
    flow = norm_engine.free_norm_flow(element, space)
    if value != flow:
        return f"norm {value} != transport {flow}"
    if "function" in out:
        f = metric_core.LipFunction.from_values(out["function"])
        if norm_engine.lip_norm(f, space) > 1:
            return "attaining function is not 1-Lipschitz"
        if norm_engine.pairing(f, element) != value:
            return "pairing of the attaining function differs from the norm"
    elif "--with-function" in op.args:
        return "function missing"
    return None


def _check_ball_section(op: Op, out: dict) -> str | None:
    d = _oracle_space(op.expect["space"], None).dist
    x, y = op.expect["x"], op.expect["y"]
    a, b = op.expect["ab"]
    vertices = [(Fraction(u), Fraction(v)) for u, v in out["vertices"]]
    support = max(abs(a * u + b * v) for u, v in vertices)
    closed = norm_engine.two_point_norm(a, b, d[x][0], d[y][0], d[x][y])
    if support != closed:
        return f"support norm {support} != two-point closed form {closed}"
    return None


def _check_admissibility(op: Op, out: dict) -> str | None:
    family = space_catalog.parse_family(op.expect["family"])
    order = op.expect["order"]
    tau = Fraction(out["tau"])
    r = [Fraction(v) for v in out["r"]]
    rho = lambda m, n: family.distance(order[m], order[n])
    if any(v < 0 for v in r):
        return "negative radius"
    for m in range(len(order)):
        for n in range(m + 1, len(order)):
            if r[m] + r[n] > rho(m, n):
                return f"radii infeasible at ({m + 1}, {n + 1})"
    for n in range(1, (len(order) - 1) // 2 + 1):
        i, j = 2 * n - 1, 2 * n  # 0-based positions of slot (2n, 2n+1)
        if r[i] + r[j] < tau * rho(i, j):
            return f"slot {n} ratio below tau"
    if op.expect["family"].startswith("uniform") and tau != 1:
        return f"uniform control gives tau {tau}, not 1"
    return None


def _plan_errors(plan_json: dict, case: str, pairs: int) -> str | None:
    """Separation r_m + r_n <= rho and the builder's stated ratio bounds."""
    family = space_catalog.parse_family(plan_json["family"])
    x, r = plan_json["x_idx"], [Fraction(v) for v in plan_json["r"]]
    if len(x) != 2 * pairs + 1:
        return f"plan has {len(x)} points, {2 * pairs + 1} expected"
    for m in range(len(x)):
        for n in range(m + 1, len(x)):
            if r[m] + r[n] > family.distance(x[m], x[n]):
                return f"separation fails at ({m + 1}, {n + 1})"
    for n in range(1, pairs + 1):
        q = (r[2 * n - 1] + r[2 * n]) / family.distance(x[2 * n - 1], x[2 * n])
        if case == "unbounded":
            low = 1 - Fraction(1, 2 * n)
        elif case == "bounded":
            quarter = Fraction(1, 4 * n)
            low = (1 - quarter - Fraction(1, 2 * (2 * n + 1))) / (1 + quarter)
        else:
            low = Fraction(1)
        if not low <= q <= 1 or (case in ("bounded", "unbounded") and q == low):
            return f"pair {n} ratio {q} outside its bound"
    if plan_json["exact"] != all(
        r[2 * n - 1] + r[2 * n] == family.distance(x[2 * n - 1], x[2 * n])
        for n in range(1, pairs + 1)
    ):
        return "exact flag disagrees with the pair ratios"
    return None


def _check_plan(op: Op, out: dict) -> str | None:
    case, _, pairs, _, _ = op.args
    error = _plan_errors(out["plan"], case, pairs)
    if error:
        return error
    lip, lower, upper = (Fraction(v) for v in out["linfty"])
    if not lower <= lip <= upper:
        return f"l-infinity bounds fail: {lower} <= {lip} <= {upper}"
    if out["plan"]["exact"] and out.get("projection", [False, False])[:2] != [True, True]:
        return "projection is not a norm-1 projection"
    return None


def check(op: Op, stdout: str) -> str | None:
    """Verify one operation's output by an independent route."""
    out = json.loads(stdout)
    if op.kind == "plan":
        return _check_plan(op, out)
    command = op.args[0]
    if command == "norm":
        return _check_norm(op, out)
    if command == "ball-section":
        return _check_ball_section(op, out)
    if command == "admissibility":
        return _check_admissibility(op, out)
    if command == "construct":
        return _plan_errors(out, op.expect["case"], op.expect["pairs"])
    if command == "verify":
        expected = sum((abs(c) for c in op.expect["coeffs"]), Fraction(0))
        if Fraction(out["l1_norm"]) != expected or out["exact"] is not True:
            return f"l1 norm {out['l1_norm']} != sum |a_n| = {expected}"
        return None
    return f"no check for {command}"
