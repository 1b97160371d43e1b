"""Workload inputs drawn from the seed, the spl command list, and the
correctness checks behind ``failed``.

Every size is drawn in a band of +-BAND around its nominal value, so seeds
give different inputs of comparable cost. ``tiny=True`` gives small inputs
for the benchmark's own test.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from pathlib import Path

BAND = 0.005
DEFAULT_SEED = 1
REAL_RTOL = 1e-9  # README: experiment reals reproduce to 1e-9
GOLDEN = Path(__file__).resolve().parent / "golden.json"

_NOMINAL = {
    "counts": dict(x=1e8, x_k2=3e7, x_pds=2e7, t_msim=4.5e7, x_abel=2e15, x_oracle=1e6,
                   x_checks=(1e5, 3e6, 1e7)),
    "wsum": dict(z_g2=8192, z_g3=512, z_holder_grid=300, z_holder_g4=60,
                 z_route_g2=300, z_route_g3=60, z_route_holder=40),
    "cli-session": dict(limit=2e7, x_t=1e7, x_tk=1e5, t_msim=1e6, z_wsum=100, x_abel=1e7,
                        hmax=1e4, ratio_grid=(1e4, 1e5, 1e6), density_grid=(1e5, 1e6),
                        x_rearrange=1000, x_apsum=1e5),
}
_TINY = {
    "counts": dict(x=2e5, x_k2=5e4, x_pds=2e4, t_msim=4e4, x_abel=1e9, x_oracle=2e4,
                   x_checks=(1e3, 3e4, 1e5)),
    "wsum": dict(z_g2=200, z_g3=40, z_holder_grid=30, z_holder_g4=14,
                 z_route_g2=50, z_route_g3=20, z_route_holder=12),
    "cli-session": dict(limit=2e5, x_t=1e5, x_tk=2e3, t_msim=1e4, z_wsum=40, x_abel=1e5,
                        hmax=1000, ratio_grid=(1e3, 1e4), density_grid=(1e4,),
                        x_rearrange=300, x_apsum=1e4),
}

WORKLOADS = tuple(_NOMINAL)


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs for this seed; the program sees only these."""
    rng = random.Random(f"{workload}:{seed}")
    nom = (_TINY if tiny else _NOMINAL)[workload]

    def near(v):
        return max(int(round(v * (1.0 + rng.uniform(-BAND, BAND)))), 2)

    if workload == "counts":
        # An even x is never prime, so on every seed the single-prime counters
        # build the greatest-prime-factor table only to (largest prime <= x) - 1
        # while tuple_count_fast asks for x - 1: the memo miss the trace exposes.
        inp = {
            "x": near(nom["x"]) // 2 * 2, "theta": "1/2", "theta_k": "1/4",
            "x_k2": near(nom["x_k2"]), "x_pds": near(nom["x_pds"]),
            "t_msim": near(nom["t_msim"]), "shifts": [2],
            "x_abel": near(nom["x_abel"]), "x_oracle": near(nom["x_oracle"]),
            "x_checks": [near(v) for v in nom["x_checks"]], "theta_checks": ["1/2", "1/3", "2/5"],
        }
        inp["limit"] = max(inp["x"], 2 * inp["t_msim"] + 1, 2 * math.isqrt(inp["x_abel"]) + 1)
        return inp
    if workload == "wsum":
        return {k: near(v) for k, v in nom.items()}
    x_t = near(nom["x_t"])
    inp = {
        "x_t": x_t, "x_tk": near(nom["x_tk"]), "t_msim": near(nom["t_msim"]),
        "z_wsum": near(nom["z_wsum"]), "x_abel": near(nom["x_abel"]), "hmax": near(nom["hmax"]),
        "ratio_grid": [near(v) for v in nom["ratio_grid"]],
        "density_grid": [near(v) for v in nom["density_grid"]] + [x_t],
        "x_rearrange": near(nom["x_rearrange"]), "x_apsum": near(nom["x_apsum"]),
    }
    # `spl verify abel` sizes its sieve by x itself, so x_abel must fit too.
    inp["limit"] = max(near(nom["limit"]), x_t, 2 * inp["t_msim"] + 1, inp["x_abel"])
    return inp


def cli_commands(inp: dict) -> list:
    """The README command list as (name, argv) pairs, sized by the inputs."""
    x, th = str(inp["x_t"]), "1/2"
    cmds = [
        ("count_t", ["count", "t", "--x", x, "--theta", th]),
        ("count_tprime", ["count", "tprime", "--x", x, "--theta", th]),
        ("count_tc", ["count", "tc", "--x", x, "--theta", th]),
        ("count_tk_both", ["count", "tk", "--x", str(inp["x_tk"]), "--k", "2", "--theta", "1/4",
                           "--method", "both"]),
        ("msim", ["msim", "--t", str(inp["t_msim"]), "--shifts", "2"]),
        ("wsum_holder", ["wsum", "--g", "2", "--ell", "1", "--z", str(inp["z_wsum"]), "--holder"]),
        ("dickman_rho", ["dickman", "rho", "--u", "2.0"]),
        ("dickman_theta1", ["dickman", "theta1"]),
        ("dickman_theta2", ["dickman", "theta2"]),
        ("dickman_density", ["dickman", "density", "--theta", "1/2"]),
        ("verify_abel", ["verify", "abel", "--x", str(inp["x_abel"]), "--k", "2", "--theta", "1/4",
                         "--shifts", "2"]),
        ("verify_mobius", ["verify", "mobius", "--hmax", str(inp["hmax"]), "--L", "64"]),
    ]
    experiments = [
        ("ratio", ["--k", "2", "--theta", "1/4", "--x-grid", ",".join(map(str, inp["ratio_grid"]))]),
        ("density", ["--theta", th, "--x-grid", ",".join(map(str, inp["density_grid"]))]),
        ("rearrange", ["--x", str(inp["x_rearrange"]), "--k", "3", "--theta", "1/6"]),
        ("apsum", ["--x", str(inp["x_apsum"]), "--p-list", "3,5,7,31"]),
    ]
    for name, args in experiments:
        for fmt in ("csv", "json"):
            cmds.append((f"experiment_{name}_{fmt}", ["experiment", name, *args, "--format", fmt]))
    return cmds


# ---------------------------------------------------------------------------
# Work counts, computed from the inputs alone.
# ---------------------------------------------------------------------------


def _iroot(n: int, k: int) -> int:
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _prime_count_small(n: int) -> int:
    if n < 2:
        return 0
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sum(flags)


def r_values(x: int, k: int) -> int:
    """Moduli r the fast tuple route visits: primes with r**k <= x."""
    return _prime_count_small(_iroot(x, k))


def pds_moduli(x: int, k: int, num: int, den: int) -> int:
    """Primes p with (x/2)**(num/den) < p <= x**(1/k), decided in integers."""
    v = _iroot(x, k)
    u = _iroot(x**num // 2**num, den)  # floor((x/2)^theta) up to one step
    while 2**num * (u + 1) ** den <= x**num:
        u += 1
    while u > 0 and 2**num * u**den > x**num:
        u -= 1
    return max(_prime_count_small(v) - _prime_count_small(u), 0)


def tuples(g: int, z: int) -> int:
    """Increasing g-tuples with 1 < h < z (the weighted sums' tuple budget)."""
    return math.comb(max(z - 2, 0), g)


# ---------------------------------------------------------------------------
# Correctness: route agreement on every seed, frozen outputs on the default.
# ---------------------------------------------------------------------------


def close(a, b, rtol: float = REAL_RTOL) -> bool:
    """Integers and strings exactly, reals to rtol, containers elementwise."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(p, q, rtol) for p, q in zip(a, b))
    return a == b


_NUM = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _numbers(text: str) -> list:
    return [float(t) if any(c in t for c in ".eE") else int(t) for t in _NUM.findall(text)]


def close_text(a: str, b: str) -> bool:
    """Same words; integers equal; reals within REAL_RTOL."""
    return _NUM.sub("#", a) == _NUM.sub("#", b) and close(_numbers(a), _numbers(b))


def load_golden(workload: str, inputs: dict):
    """Frozen outputs for the default seed, checked against the inputs they came from."""
    frozen = json.loads(GOLDEN.read_text())[workload]
    if frozen["inputs"] != json.loads(json.dumps(inputs)):
        raise ValueError(f"{GOLDEN.name}: {workload} inputs differ from the default seed's")
    return frozen["outputs"]


def _need(bad: dict, cond, names, why: str) -> None:
    """Mark names failed unless cond() holds; a check that raises fails them too."""
    try:
        ok = cond()
    except Exception as exc:  # a malformed result fails the ops it came from
        ok, why = False, f"{why} (check raised {exc!r})"
    if not ok:
        for n in names:
            bad.setdefault(n, why)


def check_counts(ops: dict, inp: dict, meta: dict) -> dict:
    """Failed op names -> reason, for one counts pass (ops: name -> value)."""
    bad = {}

    need = functools.partial(_need, bad)
    need(lambda: ops["T"] + ops["Tc"] == ops["pi"], ["T", "Tc"], "T + Tc != pi(x)")
    for key in [k for k in ops if k.startswith("check.T.")]:
        rest = key[len("check.T."):]
        x = rest.split("@")[0]
        names = [key, f"check.Tc.{rest}", f"check.pi.{x}"]
        need(lambda n=names: ops[n[0]] + ops[n[1]] == ops[n[2]], names, "T + Tc != pi(x)")
    need(lambda: ops["tk_oracle"] == ops["tk_fast_small"], ["tk_oracle", "tk_fast_small"],
         "oracle != fast")
    need(lambda: ops["tk2_w1"] == ops["tk2_w2"], ["tk2_w1", "tk2_w2"], "workers 1 != workers 2")
    need(lambda: abs(ops["abel_lhs"] - ops["abel_rhs"]) / max(ops["abel_lhs"], 1e-30)
         <= meta["abel_rel_tol"], ["abel_lhs", "abel_rhs"], "Abel identity rel > ABEL_REL_TOL")
    return bad


def check_wsum(ops: dict, inp: dict, meta: dict) -> dict:
    """Failed op names -> reason, for one wsum pass (ops: name -> value)."""
    bad = {}
    for name in ("holder_grid_g3", "holder_verify_g4", "route_holder_g3"):
        _need(bad, lambda n=name: ops[n]["violations"] == 0, [name], "Hoelder bound violated")
    z2, z3, zh = (str(inp[k]) for k in ("z_route_g2", "z_route_g3", "z_route_holder"))
    _need(bad, lambda: close(ops["grid_g2"][z2], ops["route_g2"]), ["grid_g2", "route_g2"],
          "grid != direct sum (g=2)")
    _need(bad, lambda: close(ops["grid_g3"][z3], ops["route_g3"]), ["grid_g3", "route_g3"],
          "grid != direct sum (g=3)")
    _need(bad, lambda: close(ops["holder_grid_g3"]["at"][zh], ops["route_holder_g3"]["at"][zh]),
          ["holder_grid_g3", "route_holder_g3"], "holder_grid != holder_verify")
    return bad


def _csv_rows(text: str) -> list:
    lines = text.splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _same_row(csv_row: dict, obj: dict) -> bool:
    flat = {"experiment": obj["experiment"], **obj["inputs"], **obj["raw"], **obj["derived"]}
    for k, v in flat.items():
        cell = csv_row.get(k)
        if isinstance(v, bool):
            ok = cell == ("true" if v else "false")
        elif isinstance(v, (int, float)):
            ok = cell is not None and cell != "" and float(cell) == float(v)
        else:
            ok = cell == str(v)
        if not ok:
            return False
    return len(flat) == sum(1 for c in csv_row.values() if c != "")


def check_cli(out: dict, inp: dict, meta: dict) -> dict:
    """Failed command names -> reason, for one session (out: name -> stdout)."""
    bad = {}

    need = functools.partial(_need, bad)
    def count(name):
        return int(out[name])

    def density_row():
        return {int(r["x"]): r for r in _csv_rows(out["experiment_density_csv"])}[inp["x_t"]]

    need(lambda: count("count_t") == int(density_row()["count_self"])
         and count("count_tprime") == int(density_row()["count_fixed"]),
         ["count_t", "count_tprime", "experiment_density_csv"], "counter != density table")
    need(lambda: count("count_t") + count("count_tc") == int(density_row()["pi"]),
         ["count_t", "count_tc"], "T + Tc != pi(x)")
    need(lambda: len(set(_numbers(out["count_tk_both"]))) == 1, ["count_tk_both"],
         "oracle != fast")
    need(lambda: _numbers(out["wsum_holder"])[0] <= _numbers(out["wsum_holder"])[1] * (1 + 1e-9),
         ["wsum_holder"], "Hoelder bound violated")
    for name, ref, tol in (("dickman_rho", 1 - math.log(2), 1e-10),
                           ("dickman_density", math.log(2), 1e-10),
                           ("dickman_theta1", 0.3517, 5e-5), ("dickman_theta2", 0.3735, 5e-5)):
        need(lambda n=name, r=ref, t=tol: abs(float(out[n]) - r) <= t, [name],
             "Dickman value off its README tolerance")
    need(lambda: _numbers(out["verify_abel"].split("rel=")[1])[0] <= meta["abel_rel_tol"],
         ["verify_abel"], "Abel identity rel > ABEL_REL_TOL")
    need(lambda: out["verify_mobius"].startswith("ok:"), ["verify_mobius"], "Mobius expansion")
    for exp in ("ratio", "density", "rearrange", "apsum"):
        c, j = f"experiment_{exp}_csv", f"experiment_{exp}_json"

        def same(c=c, j=j):
            rows = _csv_rows(out[c])
            objs = [json.loads(line) for line in out[j].splitlines()]
            return len(rows) == len(objs) and all(_same_row(r, o) for r, o in zip(rows, objs))

        need(same, [c, j], "csv and json rows differ")
    return bad


def check_golden_cli(out: dict, frozen: dict) -> dict:
    """csv/jsonl bytes identical; other outputs by close_text."""
    bad = {}
    for name, text in out.items():
        want = frozen.get(name)
        exact = name.startswith("experiment_")
        if want is None or not (text == want if exact else close_text(text, want)):
            bad[name] = "differs from golden output"
    return bad


def check_golden_values(ops: dict, frozen: dict) -> dict:
    return {n: "differs from golden output" for n, v in ops.items()
            if n not in frozen or not close(v, frozen[n])}
